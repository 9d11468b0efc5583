#include "data/dataset.h"

namespace zka::data {

Dataset Dataset::subset(std::span<const std::int64_t> indices) const {
  Dataset out;
  out.spec = spec;
  out.images = images.index_select0(indices);
  out.labels.reserve(indices.size());
  for (const std::int64_t i : indices) {
    out.labels.push_back(labels.at(static_cast<std::size_t>(i)));
  }
  return out;
}

tensor::Tensor Dataset::image(std::int64_t i) const {
  const std::int64_t idx[] = {i};
  return images.index_select0(idx);
}

std::vector<std::int64_t> class_histogram(const Dataset& dataset) {
  std::vector<std::int64_t> hist(
      static_cast<std::size_t>(dataset.spec.num_classes), 0);
  for (const std::int64_t label : dataset.labels) {
    hist.at(static_cast<std::size_t>(label)) += 1;
  }
  return hist;
}

}  // namespace zka::data
