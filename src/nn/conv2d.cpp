#include "nn/conv2d.h"

#include <cmath>
#include <cstring>
#include <stdexcept>

#include "util/check.h"
#include "util/rng.h"

namespace zka::nn {

namespace {

// [OC, N*OH*OW] staging between the GEMMs and the NCHW layout. Call-local,
// so every Conv2d on a thread shares one.
std::vector<float>& gemm_staging() {
  thread_local std::vector<float> buf;
  return buf;
}

}  // namespace

Conv2d::Conv2d(std::int64_t in_channels, std::int64_t out_channels,
               std::int64_t kernel, std::int64_t stride, std::int64_t pad,
               util::Rng& rng)
    : in_channels_(in_channels),
      out_channels_(out_channels),
      kernel_(kernel),
      stride_(stride),
      pad_(pad),
      weight_(Tensor({out_channels, in_channels * kernel * kernel})),
      bias_(Tensor({out_channels})) {
  const float fan_in = static_cast<float>(in_channels * kernel * kernel);
  const float bound = std::sqrt(6.0f / fan_in);
  for (auto& w : weight_.value.data()) {
    w = static_cast<float>(rng.uniform(-bound, bound));
  }
}

const Tensor& Conv2d::forward(const Tensor& input) {
  ZKA_CHECK(input.rank() == 4 && input.dim(1) == in_channels_,
            "Conv2d: expected [N, %lld, H, W], got %s",
            static_cast<long long>(in_channels_),
            tensor::shape_to_string(input.shape()).c_str());
  geometry_ = tensor::ConvGeometry{in_channels_, input.dim(2), input.dim(3),
                                   kernel_, stride_, pad_};
  const std::int64_t n = input.dim(0);
  const std::int64_t oh = geometry_.out_h();
  const std::int64_t ow = geometry_.out_w();
  ZKA_CHECK(oh > 0 && ow > 0, "Conv2d: kernel %lld larger than padded %s",
            static_cast<long long>(kernel_),
            tensor::shape_to_string(input.shape()).c_str());
  batch_ = n;
  const std::int64_t spatial = oh * ow;
  const std::int64_t cols = n * spatial;
  const std::int64_t patch = geometry_.patch_size();

  // Whole batch lowered into one [patch, N*spatial] column matrix, then a
  // single GEMM for all samples. The scratch arenas persist across calls.
  col_.resize(static_cast<std::size_t>(patch * cols));
  tensor::im2col_batched(geometry_, input.raw(), n, col_.data());
  std::vector<float>& buf = gemm_staging();
  buf.resize(static_cast<std::size_t>(out_channels_ * cols));
  tensor::gemm(out_channels_, cols, patch, 1.0f, weight_.value.raw(),
               col_.data(), 0.0f, buf.data());

  // buf is [OC, N*spatial]; the output wants [N, OC, spatial]. Fuse the
  // permutation with the bias add.
  act_.resize({n, out_channels_, oh, ow});
  for (std::int64_t c = 0; c < out_channels_; ++c) {
    const float bias = bias_.value[c];
    const float* src = buf.data() + c * cols;
    for (std::int64_t s = 0; s < n; ++s) {
      // Innermost permute+bias walk of the im2col
      float* dst = act_.raw() + (s * out_channels_ + c) * spatial;
      for (std::int64_t i = 0; i < spatial; ++i) dst[i] = src[s * spatial + i] + bias;
    }
  }
  return act_;
}

const Tensor& Conv2d::backward(const Tensor& grad_output) {
  ZKA_CHECK(batch_ >= 0, "Conv2d::backward before forward");
  const std::int64_t n = batch_;
  const std::int64_t oh = geometry_.out_h();
  const std::int64_t ow = geometry_.out_w();
  const std::int64_t spatial = oh * ow;
  const std::int64_t cols = n * spatial;
  const std::int64_t patch = geometry_.patch_size();
  ZKA_CHECK(grad_output.has_shape({n, out_channels_, oh, ow}),
            "Conv2d backward: grad %s, want [%lld, %lld, %lld, %lld]",
            tensor::shape_to_string(grad_output.shape()).c_str(),
            static_cast<long long>(n), static_cast<long long>(out_channels_),
            static_cast<long long>(oh), static_cast<long long>(ow));

  // Gather dY into [OC, N*spatial] (the layout the batched GEMMs want) and,
  // unless frozen, accumulate the bias gradient along the way.
  const bool grads = !frozen();
  std::vector<float>& buf = gemm_staging();
  buf.resize(static_cast<std::size_t>(out_channels_ * cols));
  for (std::int64_t c = 0; c < out_channels_; ++c) {
    float* dst = buf.data() + c * cols;
    float acc = 0.0f;
    for (std::int64_t s = 0; s < n; ++s) {
      // dY gather feeding the batched GEMMs
      const float* src = grad_output.raw() + (s * out_channels_ + c) * spatial;
      std::memcpy(dst + s * spatial, src,
                  static_cast<std::size_t>(spatial) * sizeof(float));
      if (grads) {
        for (std::int64_t i = 0; i < spatial; ++i) acc += src[i];
      }
    }
    if (grads) bias_.grad[c] += acc;
  }

  // dW += dY @ colᵀ in one GEMM over the whole batch; col_ still holds the
  // input's columns from forward().
  if (grads) {
    tensor::gemm_a_bt(out_channels_, patch, cols, 1.0f, buf.data(),
                      col_.data(), 1.0f, weight_.grad.raw());
  }

  // dcol = Wᵀ @ dY into col_ (its columns are spent), then scatter every
  // sample's columns back to the image. col2im accumulates, so the image
  // buffer is zeroed first.
  tensor::gemm_at_b(patch, cols, out_channels_, 1.0f, weight_.value.raw(),
                    buf.data(), 0.0f, col_.data());
  act_.resize({n, in_channels_, geometry_.in_h, geometry_.in_w});
  act_.fill(0.0f);
  tensor::col2im_batched(geometry_, col_.data(), n, act_.raw());
  return act_;
}

}  // namespace zka::nn
