#include "nn/flatten.h"

#include <algorithm>
#include <array>

#include "util/check.h"

namespace zka::nn {

namespace {

// `src`'s elements into `dst`, resized to `shape` (same element count).
const Tensor& copy_as(const Tensor& src, std::span<const std::int64_t> shape,
                      Tensor& dst) {
  dst.resize(shape);
  std::copy(src.data().begin(), src.data().end(), dst.data().begin());
  return dst;
}

}  // namespace

const Tensor& Flatten::forward(const Tensor& input) {
  ZKA_CHECK(input.rank() >= 1, "Flatten: rank-0 input");
  input_shape_ = input.shape();
  const std::int64_t n = input.dim(0);
  const std::int64_t features = n > 0 ? input.numel() / n : 0;
  return copy_as(input, std::array{n, features}, buf_);
}

const Tensor& Flatten::backward(const Tensor& grad_output) {
  ZKA_CHECK(!input_shape_.empty(), "Flatten::backward before forward");
  ZKA_CHECK(grad_output.numel() == buf_.numel(),
            "Flatten backward: grad %s for input %s",
            tensor::shape_to_string(grad_output.shape()).c_str(),
            tensor::shape_to_string(input_shape_).c_str());
  return copy_as(grad_output, input_shape_, buf_);
}

const Tensor& Unflatten::forward(const Tensor& input) {
  ZKA_CHECK(input.rank() == 2 && input.dim(1) == channels_ * height_ * width_,
            "Unflatten: expected [N, %lld], got %s",
            static_cast<long long>(channels_ * height_ * width_),
            tensor::shape_to_string(input.shape()).c_str());
  return copy_as(input, std::array{input.dim(0), channels_, height_, width_},
                 buf_);
}

const Tensor& Unflatten::backward(const Tensor& grad_output) {
  ZKA_CHECK(grad_output.rank() == 4 &&
                grad_output.numel() ==
                    grad_output.dim(0) * channels_ * height_ * width_,
            "Unflatten backward: grad %s",
            tensor::shape_to_string(grad_output.shape()).c_str());
  return copy_as(grad_output,
                 std::array{grad_output.dim(0), channels_ * height_ * width_},
                 buf_);
}

}  // namespace zka::nn
