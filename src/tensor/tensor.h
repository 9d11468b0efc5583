// Value-semantic, contiguous, row-major float32 tensor.
//
// Deliberately small: just what the NN framework and the attacks need.
// Shapes are vectors of int64_t; rank is typically 1 (flat parameter
// vectors), 2 (dense activations / GEMM operands) or 4 (NCHW images).
#pragma once

#include <algorithm>
#include <cstdint>
#include <initializer_list>
#include <span>
#include <string>
#include <vector>

#include "util/check.h"

namespace zka::util {
class Rng;
}

namespace zka::tensor {

using Shape = std::vector<std::int64_t>;

/// Product of all dimensions; 1 for a rank-0 shape.
std::int64_t shape_numel(const Shape& shape);

/// Human-readable "[2, 3, 4]".
std::string shape_to_string(const Shape& shape);

class Tensor {
 public:
  /// Empty rank-1 tensor of size 0.
  Tensor();
  /// Zero-initialized tensor of the given shape.
  explicit Tensor(Shape shape);
  /// Tensor of the given shape filled with `value`.
  Tensor(Shape shape, float value);
  /// Tensor adopting `data`; data.size() must equal shape_numel(shape).
  Tensor(Shape shape, std::vector<float> data);

  /// Uniform random entries in [lo, hi).
  static Tensor uniform(Shape shape, util::Rng& rng, float lo = 0.0f,
                        float hi = 1.0f);
  /// Overwrites every entry, in order, with the draws uniform() makes.
  void fill_uniform(util::Rng& rng, float lo, float hi) noexcept;
  /// Gaussian random entries.
  static Tensor normal(Shape shape, util::Rng& rng, float mean = 0.0f,
                       float stddev = 1.0f);

  const Shape& shape() const noexcept { return shape_; }
  std::int64_t numel() const noexcept {
    return static_cast<std::int64_t>(data_.size());
  }
  std::int64_t dim(std::size_t axis) const;
  std::size_t rank() const noexcept { return shape_.size(); }

  std::span<float> data() noexcept { return data_; }
  std::span<const float> data() const noexcept { return data_; }
  float* raw() noexcept { return data_.data(); }
  const float* raw() const noexcept { return data_.data(); }

  // Flat element access. Unchecked in release; contract builds
  // (ZKA_CONTRACTS) abort on out-of-bounds instead of silently reading
  // whatever follows the buffer.
  float& operator[](std::int64_t i) {
    ZKA_DCHECK(i >= 0 && i < numel(), "flat index %lld out of [0, %lld)",
               static_cast<long long>(i), static_cast<long long>(numel()));
    return data_[static_cast<std::size_t>(i)];
  }
  float operator[](std::int64_t i) const {
    ZKA_DCHECK(i >= 0 && i < numel(), "flat index %lld out of [0, %lld)",
               static_cast<long long>(i), static_cast<long long>(numel()));
    return data_[static_cast<std::size_t>(i)];
  }

  /// Multi-index access (rank must match the number of indices).
  float& at(std::initializer_list<std::int64_t> idx);
  float at(std::initializer_list<std::int64_t> idx) const;

  /// Re-shapes this tensor in place. The storage grows only when the new
  /// element count exceeds its capacity, so a buffer resized to the shapes
  /// it has already held never allocates. Element values are unspecified
  /// afterwards: callers overwrite every element or fill() first.
  void resize(std::span<const std::int64_t> shape);
  void resize(std::initializer_list<std::int64_t> shape) {
    resize(std::span<const std::int64_t>(shape.begin(), shape.size()));
  }

  /// True iff the shape equals `dims` (no temporary Shape is built).
  bool has_shape(std::initializer_list<std::int64_t> dims) const noexcept {
    return std::equal(shape_.begin(), shape_.end(), dims.begin(), dims.end());
  }

  /// Gather rows along axis 0 by index. Copies.
  Tensor index_select0(std::span<const std::int64_t> indices) const;
  /// Same gather into `out`, resized in place (see resize()).
  void index_select0(std::span<const std::int64_t> indices, Tensor& out) const;

  void fill(float value) noexcept;

  /// Largest element. Requires numel > 0.
  float max() const;
  /// Index of the maximum element (first on ties). Requires numel > 0.
  std::int64_t argmax() const;

  bool same_shape(const Tensor& other) const noexcept {
    return shape_ == other.shape_;
  }

 private:
  std::int64_t flat_index(std::initializer_list<std::int64_t> idx) const;

  Shape shape_;
  std::vector<float> data_;
};

/// True iff shapes match and all entries are within `tol`.
bool allclose(const Tensor& a, const Tensor& b, float tol = 1e-5f) noexcept;

}  // namespace zka::tensor
