#include "nn/conv2d.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>

#include "util/check.h"
#include "util/rng.h"

namespace zka::nn {

namespace {

// [rows, N*OH*OW] staging between the GEMMs and the NCHW layout. Call-local,
// so every conv layer on a thread shares one.
std::vector<float>& gemm_staging() {
  thread_local std::vector<float> buf;
  return buf;
}

}  // namespace

ConvBase::ConvBase(std::int64_t in_channels, std::int64_t out_channels,
                   std::int64_t kernel, std::int64_t stride, std::int64_t pad,
                   bool transposed, util::Rng& rng)
    : in_channels_(in_channels),
      out_channels_(out_channels),
      kernel_(kernel),
      stride_(stride),
      pad_(pad),
      weight_(transposed
                  ? Tensor({in_channels, out_channels * kernel * kernel})
                  : Tensor({out_channels, in_channels * kernel * kernel})),
      bias_(Tensor({out_channels})) {
  reset_parameters(rng);
}

void ConvBase::reset_parameters(util::Rng& rng) {
  const float fan_in = static_cast<float>(in_channels_ * kernel_ * kernel_);
  const float bound = std::sqrt(6.0f / fan_in);
  weight_.value.fill_uniform(rng, -bound, bound);
  bias_.value.fill(0.0f);
}

const Tensor& ConvBase::lower(const Tensor& image, const float* bias) {
  const std::int64_t rows = weight_.value.dim(0);
  const std::int64_t patch = geometry_.patch_size();
  const std::int64_t spatial = geometry_.out_h() * geometry_.out_w();
  const std::int64_t cols = batch_ * spatial;

  // Whole batch lowered into one [patch, N*spatial] column matrix, then a
  // single GEMM for all samples. The scratch arenas persist across calls.
  col_.resize(static_cast<std::size_t>(patch * cols));
  tensor::im2col_batched(geometry_, image.raw(), batch_, col_.data());
  std::vector<float>& buf = gemm_staging();
  buf.resize(static_cast<std::size_t>(rows * cols));
  tensor::gemm(rows, cols, patch, 1.0f, weight_.value.raw(), col_.data(),
               0.0f, buf.data());

  // buf is [rows, N*spatial]; the result wants [N, rows, spatial]. Fuse the
  // permutation with the bias add. Without a bias it copies: adding 0.0f
  // would turn -0 into +0.
  act_.resize({batch_, rows, geometry_.out_h(), geometry_.out_w()});
  for (std::int64_t c = 0; c < rows; ++c) {
    const float* src = buf.data() + c * cols;
    for (std::int64_t s = 0; s < batch_; ++s) {
      float* dst = act_.raw() + (s * rows + c) * spatial;
      const float* from = src + s * spatial;
      if (bias == nullptr) {
        std::copy_n(from, spatial, dst);
      } else {
        const float b = bias[c];
        for (std::int64_t i = 0; i < spatial; ++i) dst[i] = from[i] + b;
      }
    }
  }
  return act_;
}

const Tensor& ConvBase::scatter(const Tensor& src, std::vector<float>& gathered,
                                bool weight_grad) {
  const std::int64_t rows = weight_.value.dim(0);
  const std::int64_t patch = geometry_.patch_size();
  const std::int64_t spatial = geometry_.out_h() * geometry_.out_w();
  const std::int64_t cols = batch_ * spatial;

  // Gather the batch channel-major, the layout the batched GEMMs want.
  gathered.resize(static_cast<std::size_t>(rows * cols));
  for (std::int64_t s = 0; s < batch_; ++s) {
    const float* x = src.raw() + s * rows * spatial;
    for (std::int64_t c = 0; c < rows; ++c) {
      std::memcpy(gathered.data() + c * cols + s * spatial, x + c * spatial,
                  static_cast<std::size_t>(spatial) * sizeof(float));
    }
  }
  if (weight_grad) add_weight_grad(gathered.data());

  // col = Wᵀ @ gathered, then scatter every sample's columns back to the
  // image. col2im accumulates, so the image buffer is zeroed first.
  col_.resize(static_cast<std::size_t>(patch * cols));
  tensor::gemm_at_b(patch, cols, rows, 1.0f, weight_.value.raw(),
                    gathered.data(), 0.0f, col_.data());
  act_.resize({batch_, geometry_.in_channels, geometry_.in_h, geometry_.in_w});
  act_.fill(0.0f);
  tensor::col2im_batched(geometry_, col_.data(), batch_, act_.raw());
  return act_;
}

void ConvBase::add_weight_grad(const float* gathered) {
  const std::int64_t cols = batch_ * geometry_.out_h() * geometry_.out_w();
  tensor::gemm_a_bt(weight_.value.dim(0), geometry_.patch_size(), cols, 1.0f,
                    gathered, col_.data(), 1.0f, weight_.grad.raw());
}

const Tensor& Conv2d::forward(const Tensor& input) {
  ZKA_CHECK(input.rank() == 4 && input.dim(1) == in_channels_,
            "Conv2d: expected [N, %lld, H, W], got %s",
            static_cast<long long>(in_channels_),
            tensor::shape_to_string(input.shape()).c_str());
  geometry_ = {in_channels_, input.dim(2), input.dim(3), kernel_, stride_,
               pad_};
  ZKA_CHECK(geometry_.out_h() > 0 && geometry_.out_w() > 0,
            "Conv2d: kernel %lld larger than padded %s",
            static_cast<long long>(kernel_),
            tensor::shape_to_string(input.shape()).c_str());
  batch_ = input.dim(0);
  return lower(input, bias_.value.raw());
}

const Tensor& Conv2d::backward(const Tensor& grad_output) {
  ZKA_CHECK(batch_ >= 0, "Conv2d::backward before forward");
  const std::int64_t oh = geometry_.out_h();
  const std::int64_t ow = geometry_.out_w();
  const std::int64_t spatial = oh * ow;
  ZKA_CHECK(grad_output.has_shape({batch_, out_channels_, oh, ow}),
            "Conv2d backward: grad %s, want [%lld, %lld, %lld, %lld]",
            tensor::shape_to_string(grad_output.shape()).c_str(),
            static_cast<long long>(batch_),
            static_cast<long long>(out_channels_), static_cast<long long>(oh),
            static_cast<long long>(ow));

  // db: one accumulator per channel over (sample, pixel) ascending.
  const bool grads = !frozen();
  if (grads) {
    for (std::int64_t c = 0; c < out_channels_; ++c) {
      float acc = 0.0f;
      for (std::int64_t s = 0; s < batch_; ++s) {
        const float* dy = grad_output.raw() + (s * out_channels_ + c) * spatial;
        for (std::int64_t i = 0; i < spatial; ++i) acc += dy[i];
      }
      bias_.grad[c] += acc;
    }
  }
  // dW += dY @ colᵀ on the input's columns from forward(), then
  // dX = col2im(Wᵀ @ dY).
  return scatter(grad_output, gemm_staging(), grads);
}

const Tensor& ConvTranspose2d::forward(const Tensor& input) {
  ZKA_CHECK(input.rank() == 4 && input.dim(1) == in_channels_,
            "ConvTranspose2d: expected [N, %lld, H, W], got %s",
            static_cast<long long>(in_channels_),
            tensor::shape_to_string(input.shape()).c_str());
  const std::int64_t oh = (input.dim(2) - 1) * stride_ - 2 * pad_ + kernel_;
  const std::int64_t ow = (input.dim(3) - 1) * stride_ - 2 * pad_ + kernel_;
  ZKA_CHECK(oh > 0 && ow > 0,
            "ConvTranspose2d: non-positive output %lldx%lld for input %s",
            static_cast<long long>(oh), static_cast<long long>(ow),
            tensor::shape_to_string(input.shape()).c_str());
  // The conv from this layer's output back to its input; its output is
  // exactly the input's H x W.
  geometry_ = {out_channels_, oh, ow, kernel_, stride_, pad_};
  batch_ = input.dim(0);
  scatter(input, gathered_, /*weight_grad=*/false);
  const std::int64_t spatial_out = oh * ow;
  for (std::int64_t s = 0; s < batch_; ++s) {  // bias add after col2im
    float* dst = act_.raw() + s * out_channels_ * spatial_out;
    for (std::int64_t c = 0; c < out_channels_; ++c) {
      const float b = bias_.value[c];
      float* plane = dst + c * spatial_out;
      for (std::int64_t i = 0; i < spatial_out; ++i) plane[i] += b;
    }
  }
  return act_;
}

const Tensor& ConvTranspose2d::backward(const Tensor& grad_output) {
  ZKA_CHECK(batch_ >= 0, "ConvTranspose2d::backward before forward");
  ZKA_CHECK(grad_output.has_shape(
                {batch_, out_channels_, geometry_.in_h, geometry_.in_w}),
            "ConvTranspose2d backward: grad %s, want [%lld, %lld, %lld, %lld]",
            tensor::shape_to_string(grad_output.shape()).c_str(),
            static_cast<long long>(batch_),
            static_cast<long long>(out_channels_),
            static_cast<long long>(geometry_.in_h),
            static_cast<long long>(geometry_.in_w));

  // dX = W @ im2col(dY); col_ then holds dY's columns for dW.
  lower(grad_output, nullptr);
  if (!frozen()) {
    add_weight_grad(gathered_.data());
    // db += spatial sums of the output gradient.
    const std::int64_t spatial_out = geometry_.in_h * geometry_.in_w;
    for (std::int64_t s = 0; s < batch_; ++s) {
      const float* gout = grad_output.raw() + s * out_channels_ * spatial_out;
      for (std::int64_t c = 0; c < out_channels_; ++c) {
        const float* plane = gout + c * spatial_out;
        float acc = 0.0f;
        for (std::int64_t i = 0; i < spatial_out; ++i) acc += plane[i];
        bias_.grad[c] += acc;
      }
    }
  }
  return act_;
}

}  // namespace zka::nn
