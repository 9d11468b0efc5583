#include "nn/pooling.h"

#include <limits>

#include "util/check.h"

namespace zka::nn {

MaxPool2d::MaxPool2d(std::int64_t kernel, std::int64_t stride)
    : kernel_(kernel), stride_(stride == 0 ? kernel : stride) {
  ZKA_CHECK(kernel_ > 0 && stride_ > 0,
            "MaxPool2d: kernel %lld / stride %lld must be positive",
            static_cast<long long>(kernel_), static_cast<long long>(stride_));
}

const Tensor& MaxPool2d::forward(const Tensor& input) {
  ZKA_CHECK(input.rank() == 4, "MaxPool2d: expected NCHW input, got %s",
            tensor::shape_to_string(input.shape()).c_str());
  ZKA_CHECK(input.numel() <= std::numeric_limits<std::int32_t>::max(),
            "MaxPool2d: input %s too large for 32-bit argmax indices",
            tensor::shape_to_string(input.shape()).c_str());
  input_shape_ = input.shape();
  const std::int64_t n = input.dim(0);
  const std::int64_t c = input.dim(1);
  const std::int64_t h = input.dim(2);
  const std::int64_t w = input.dim(3);
  const std::int64_t oh = (h - kernel_) / stride_ + 1;
  const std::int64_t ow = (w - kernel_) / stride_ + 1;
  ZKA_CHECK(oh > 0 && ow > 0, "MaxPool2d: window %lld larger than input %s",
            static_cast<long long>(kernel_),
            tensor::shape_to_string(input.shape()).c_str());
  act_.resize({n, c, oh, ow});
  argmax_.resize(static_cast<std::size_t>(act_.numel()));
  std::int64_t o = 0;
  for (std::int64_t s = 0; s < n; ++s) {
    for (std::int64_t ch = 0; ch < c; ++ch) {
      const std::int64_t plane_off = (s * c + ch) * h * w;
      const auto plane = input.data().subspan(
          static_cast<std::size_t>(plane_off),
          static_cast<std::size_t>(h * w));
      for (std::int64_t y = 0; y < oh; ++y) {
        for (std::int64_t x = 0; x < ow; ++x, ++o) {
          float best = plane[(y * stride_) * w + (x * stride_)];
          std::int64_t best_idx = (y * stride_) * w + (x * stride_);
          for (std::int64_t ky = 0; ky < kernel_; ++ky) {
            const std::int64_t iy = y * stride_ + ky;
            for (std::int64_t kx = 0; kx < kernel_; ++kx) {
              const std::int64_t ix = x * stride_ + kx;
              const float v = plane[iy * w + ix];
              if (v > best) {
                best = v;
                best_idx = iy * w + ix;
              }
            }
          }
          act_[o] = best;
          argmax_[static_cast<std::size_t>(o)] =
              static_cast<std::int32_t>(plane_off + best_idx);
        }
      }
    }
  }
  return act_;
}

const Tensor& MaxPool2d::backward(const Tensor& grad_output) {
  ZKA_CHECK(grad_output.numel() == static_cast<std::int64_t>(argmax_.size()),
            "MaxPool2d backward: grad numel %lld != %zu",
            static_cast<long long>(grad_output.numel()), argmax_.size());
  ZKA_CHECK(&grad_output != &act_,
            "MaxPool2d: grad aliases the layer's own output");
  // Overlapping windows can route several outputs to one input, so the
  // scatter accumulates into a zeroed buffer.
  act_.resize(input_shape_);
  act_.fill(0.0f);
  for (std::size_t o = 0; o < argmax_.size(); ++o) {
    act_[argmax_[o]] += grad_output[static_cast<std::int64_t>(o)];
  }
  return act_;
}

}  // namespace zka::nn
