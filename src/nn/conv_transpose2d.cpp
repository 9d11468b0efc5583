#include "nn/conv_transpose2d.h"

#include <cmath>
#include <cstring>
#include <stdexcept>

#include "util/check.h"
#include "util/rng.h"

namespace zka::nn {

ConvTranspose2d::ConvTranspose2d(std::int64_t in_channels,
                                 std::int64_t out_channels, std::int64_t kernel,
                                 std::int64_t stride, std::int64_t pad,
                                 util::Rng& rng)
    : in_channels_(in_channels),
      out_channels_(out_channels),
      kernel_(kernel),
      stride_(stride),
      pad_(pad),
      weight_(Tensor({in_channels, out_channels * kernel * kernel})),
      bias_(Tensor({out_channels})) {
  const float fan_in = static_cast<float>(in_channels * kernel * kernel);
  const float bound = std::sqrt(6.0f / fan_in);
  for (auto& w : weight_.value.data()) {
    w = static_cast<float>(rng.uniform(-bound, bound));
  }
}

Tensor ConvTranspose2d::forward(const Tensor& input) {
  ZKA_CHECK(input.rank() == 4 && input.dim(1) == in_channels_,
            "ConvTranspose2d: expected [N, %lld, H, W], got %s",
            static_cast<long long>(in_channels_),
            tensor::shape_to_string(input.shape()).c_str());
  cached_input_ = input;
  const std::int64_t n = input.dim(0);
  const std::int64_t h = input.dim(2);
  const std::int64_t w = input.dim(3);
  const std::int64_t oh = (h - 1) * stride_ - 2 * pad_ + kernel_;
  const std::int64_t ow = (w - 1) * stride_ - 2 * pad_ + kernel_;
  ZKA_CHECK(oh > 0 && ow > 0,
            "ConvTranspose2d: non-positive output %lldx%lld for input %s",
            static_cast<long long>(oh), static_cast<long long>(ow),
            tensor::shape_to_string(input.shape()).c_str());
  geometry_ = tensor::ConvGeometry{out_channels_, oh, ow, kernel_, stride_, pad_};
  const std::int64_t spatial_in = h * w;
  const std::int64_t spatial_out = oh * ow;
  const std::int64_t cols = n * spatial_in;
  const std::int64_t patch = geometry_.patch_size();  // OC*K*K

  // Gather the batch channel-major into xperm_[IC, N*H*W] so the whole
  // batch goes through one GEMM; backward reuses it for the weight grad.
  xperm_.resize(static_cast<std::size_t>(in_channels_ * cols));
  for (std::int64_t s = 0; s < n; ++s) {
    // Channel-major gather into the GEMM arena
    const float* x = input.raw() + s * in_channels_ * spatial_in;
    for (std::int64_t c = 0; c < in_channels_; ++c) {
      std::memcpy(xperm_.data() + c * cols + s * spatial_in,
                  x + c * spatial_in,
                  static_cast<std::size_t>(spatial_in) * sizeof(float));
    }
  }

  // col[OC*K*K, N*H*W] = Wᵀ[OCKK, IC] @ xperm[IC, N*H*W], then scatter every
  // sample's column slab into its (zero-initialized) output image.
  col_.resize(static_cast<std::size_t>(patch * cols));
  tensor::gemm_at_b(patch, cols, in_channels_, 1.0f, weight_.value.raw(),
                    xperm_.data(), 0.0f, col_.data());
  Tensor out({n, out_channels_, oh, ow});
  tensor::col2im_batched(geometry_, col_.data(), n, out.raw());
  for (std::int64_t s = 0; s < n; ++s) {
    // Bias add over the scattered output planes
    float* dst = out.raw() + s * out_channels_ * spatial_out;
    for (std::int64_t c = 0; c < out_channels_; ++c) {
      const float b = bias_.value[c];
      float* plane = dst + c * spatial_out;
      for (std::int64_t i = 0; i < spatial_out; ++i) plane[i] += b;
    }
  }
  return out;
}

Tensor ConvTranspose2d::backward(const Tensor& grad_output) {
  ZKA_CHECK(cached_input_.rank() == 4,
            "ConvTranspose2d::backward before forward");
  const std::int64_t n = cached_input_.dim(0);
  const std::int64_t h = cached_input_.dim(2);
  const std::int64_t w = cached_input_.dim(3);
  const std::int64_t spatial_in = h * w;
  const std::int64_t spatial_out = geometry_.in_h * geometry_.in_w;
  const std::int64_t cols = n * spatial_in;
  const std::int64_t patch = geometry_.patch_size();
  ZKA_CHECK_SHAPE(
      grad_output.shape(),
      (tensor::Shape{n, out_channels_, geometry_.in_h, geometry_.in_w}),
      "ConvTranspose2d backward grad");

  // Gather the output gradient into columns (adjoint of forward's scatter),
  // all samples at once; col_ is free to reuse after forward.
  col_.resize(static_cast<std::size_t>(patch * cols));
  tensor::im2col_batched(geometry_, grad_output.raw(), n, col_.data());

  // dW[IC, OCKK] += xperm[IC, N*HW] @ colᵀ; xperm_ is cached from forward.
  tensor::gemm_a_bt(in_channels_, patch, cols, 1.0f, xperm_.data(),
                    col_.data(), 1.0f, weight_.grad.raw());

  // db += spatial sums of the output gradient.
  for (std::int64_t s = 0; s < n; ++s) {
    // Bias-gradient reduction over dY planes
    const float* gout = grad_output.raw() + s * out_channels_ * spatial_out;
    for (std::int64_t c = 0; c < out_channels_; ++c) {
      const float* plane = gout + c * spatial_out;
      float acc = 0.0f;
      for (std::int64_t i = 0; i < spatial_out; ++i) acc += plane[i];
      bias_.grad[c] += acc;
    }
  }

  // dx[IC, N*HW] = W[IC, OCKK] @ col, then un-permute into NCHW.
  buf_.resize(static_cast<std::size_t>(in_channels_ * cols));
  tensor::gemm(in_channels_, cols, patch, 1.0f, weight_.value.raw(),
               col_.data(), 0.0f, buf_.data());
  Tensor grad_input(cached_input_.shape());
  for (std::int64_t s = 0; s < n; ++s) {
    // Un-permute of the GEMM result into NCHW
    float* dst = grad_input.raw() + s * in_channels_ * spatial_in;
    for (std::int64_t c = 0; c < in_channels_; ++c) {
      std::memcpy(dst + c * spatial_in,
                  buf_.data() + c * cols + s * spatial_in,
                  static_cast<std::size_t>(spatial_in) * sizeof(float));
    }
  }
  return grad_input;
}

}  // namespace zka::nn
