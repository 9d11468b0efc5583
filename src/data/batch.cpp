#include "data/batch.h"

#include <algorithm>
#include <stdexcept>

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

void gather_batch(const Dataset& dataset, std::span<const std::int64_t> rows,
                  Batch& out) {
  // index_select0 range-checks every row before the labels are read.
  dataset.images.index_select0(rows, out.images);
  out.labels.resize(rows.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    out.labels[i] = dataset.labels[static_cast<std::size_t>(rows[i])];
  }
}

}  // namespace zka::data
