// In-memory labeled image dataset ([N, C, H, W] + integer labels).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "models/models.h"
#include "tensor/tensor.h"

namespace zka::data {

struct Dataset {
  models::ImageSpec spec;
  tensor::Tensor images;                // [N, C, H, W], values in [-1, 1]
  std::vector<std::int64_t> labels;     // size N, in [0, num_classes)

  std::int64_t size() const noexcept {
    return static_cast<std::int64_t>(labels.size());
  }

  /// Copies the rows at `indices` into a new dataset.
  Dataset subset(std::span<const std::int64_t> indices) const;

  /// Image `i` as a [1, C, H, W] tensor (for single-sample inference).
  tensor::Tensor image(std::int64_t i) const;
};

/// Count of samples per class.
std::vector<std::int64_t> class_histogram(const Dataset& dataset);

}  // namespace zka::data
