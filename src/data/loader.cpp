#include "data/loader.h"

#include <algorithm>
#include <stdexcept>

#include "util/check.h"
#include "util/rng.h"

namespace zka::data {

void fill_batch(const Dataset& dataset, std::int64_t begin, std::int64_t end,
                Batch& out) {
  if (begin < 0 || begin >= end || end > dataset.size()) {
    throw std::out_of_range("fill_batch: rows out of dataset range");
  }
  const tensor::Shape& shape = dataset.images.shape();
  out.images.resize({end - begin, shape[1], shape[2], shape[3]});
  const std::int64_t row = shape[1] * shape[2] * shape[3];
  std::copy(dataset.images.raw() + begin * row,
            dataset.images.raw() + end * row, out.images.raw());
  out.labels.assign(dataset.labels.begin() + begin,
                    dataset.labels.begin() + end);
}

DataLoader::DataLoader(const Dataset& dataset, std::int64_t batch_size)
    : dataset_(&dataset), batch_size_(batch_size) {
  ZKA_CHECK(batch_size > 0, "DataLoader: batch_size %lld",
            static_cast<long long>(batch_size));
  indices_.resize(static_cast<std::size_t>(dataset.size()));
  for (std::int64_t i = 0; i < dataset.size(); ++i) {
    indices_[static_cast<std::size_t>(i)] = i;
  }
}

DataLoader::DataLoader(const Dataset& dataset,
                       std::vector<std::int64_t> indices,
                       std::int64_t batch_size)
    : dataset_(&dataset), indices_(std::move(indices)),
      batch_size_(batch_size) {
  ZKA_CHECK(batch_size > 0, "DataLoader: batch_size %lld",
            static_cast<long long>(batch_size));
  for (const std::int64_t i : indices_) {
    if (i < 0 || i >= dataset.size()) {
      throw std::out_of_range("DataLoader: index out of dataset range");
    }
  }
}

std::int64_t DataLoader::num_batches() const noexcept {
  return (size() + batch_size_ - 1) / batch_size_;
}

void DataLoader::shuffle(util::Rng& rng) { rng.shuffle(indices_); }

void DataLoader::batch(std::int64_t b, Batch& out) const {
  if (b < 0 || b >= num_batches()) {
    throw std::out_of_range("DataLoader::batch out of range");
  }
  const std::int64_t begin = b * batch_size_;
  const std::int64_t end = std::min<std::int64_t>(begin + batch_size_, size());
  const std::span<const std::int64_t> rows(
      indices_.data() + begin, static_cast<std::size_t>(end - begin));
  dataset_->images.index_select0(rows, out.images);
  out.labels.resize(rows.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    out.labels[i] = dataset_->labels[static_cast<std::size_t>(rows[i])];
  }
}

}  // namespace zka::data
