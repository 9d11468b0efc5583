// 2-D convolution and transposed convolution over NCHW input, both lowered
// to GEMM through one im2col/col2im pair.
//
// A ConvTranspose2d is the adjoint of the Conv2d that maps its output back
// to its input, and its weight [in, out * k * k] is already that Conv2d's
// weight. So the two layers run one lowering in opposite directions:
// ConvBase::lower (im2col, GEMM, NCHW permute) is Conv2d's forward and
// ConvTranspose2d's backward, and ConvBase::scatter (channel-major gather,
// Wᵀ GEMM, col2im) is Conv2d's backward and ConvTranspose2d's forward.
#pragma once

#include <vector>

#include "nn/module.h"
#include "tensor/ops.h"

namespace zka::util {
class Rng;
}

namespace zka::nn {

/// What Conv2d and ConvTranspose2d share: their shape, {weight, bias}, and
/// the lowering over `geometry_`. That is the forward convolution from the
/// image side (a Conv2d's input, a ConvTranspose2d's output) to the column
/// side (the other end), whose channels are the weight's rows.
class ConvBase : public Module {
 public:
  std::span<Parameter* const> parameters() override { return params_; }

  /// Re-draws the weight from `rng` as the constructor drew it (the same
  /// draws in the same order) and zeroes the bias.
  void reset_parameters(util::Rng& rng);

 protected:
  /// Square kernel / stride / symmetric padding; He-uniform init, bound
  /// sqrt(6 / (in_channels * k * k)). The weight is [out, in * k * k], or
  /// [in, out * k * k] when `transposed`.
  ConvBase(std::int64_t in_channels, std::int64_t out_channels,
           std::int64_t kernel, std::int64_t stride, std::int64_t pad,
           bool transposed, util::Rng& rng);

  /// act_ [batch_, rows, OH, OW] = W @ im2col(image) for an image-side
  /// batch, plus bias[c] on channel c when `bias` is given. col_ keeps the
  /// image's columns.
  const Tensor& lower(const Tensor& image, const float* bias);

  /// act_ [batch_, C, H, W] = col2im(Wᵀ @ gathered) for a column-side batch
  /// `src`, gathered channel-major into `gathered` [rows, batch_ * OH*OW].
  /// With `weight_grad`, first adds gathered @ col_ᵀ to the weight
  /// gradient, while col_ still holds the columns lower() left; the Wᵀ GEMM
  /// then overwrites them.
  const Tensor& scatter(const Tensor& src, std::vector<float>& gathered,
                        bool weight_grad);

  /// weight.grad += gathered [rows, batch_ * OH*OW] @ col_ᵀ.
  void add_weight_grad(const float* gathered);

  std::int64_t in_channels_;
  std::int64_t out_channels_;
  std::int64_t kernel_;
  std::int64_t stride_;
  std::int64_t pad_;
  Parameter weight_;
  Parameter bias_;
  Parameter* params_[2] = {&weight_, &bias_};
  std::int64_t batch_ = -1;  // N of the last forward; -1 before any
  tensor::ConvGeometry geometry_{};
  // [patch, N*OH*OW] image-side columns: im2col (lower) or Wᵀ @ gathered
  // (scatter). The GEMM output of lower and a Conv2d's gathered dY live only
  // within one call, so one per-thread buffer serves every layer.
  std::vector<float> col_;
  Tensor act_;  // output after forward, input gradient after backward
};

class Conv2d : public ConvBase {
 public:
  /// Weight layout is [out_channels, in_channels * kernel * kernel].
  Conv2d(std::int64_t in_channels, std::int64_t out_channels,
         std::int64_t kernel, std::int64_t stride, std::int64_t pad,
         util::Rng& rng)
      : ConvBase(in_channels, out_channels, kernel, stride, pad, false, rng) {}

  // Forward lowers the input; col_ keeps its columns for dW, so backward
  // needs only col_ and the input shape, never the input itself.
  const Tensor& forward(const Tensor& input) override;
  const Tensor& backward(const Tensor& grad_output) override;
  std::string name() const override { return "Conv2d"; }
};

/// Transposed (fractionally strided) convolution, used by the ZKA-G
/// generator (TCNN) to upsample a latent feature map into an image.
class ConvTranspose2d : public ConvBase {
 public:
  /// Output spatial size: (H-1)*stride - 2*pad + kernel.
  /// Weight layout: [in_channels, out_channels * kernel * kernel]
  /// (mirrors torch's ConvTranspose2d [in, out, kH, kW]).
  ConvTranspose2d(std::int64_t in_channels, std::int64_t out_channels,
                  std::int64_t kernel, std::int64_t stride, std::int64_t pad,
                  util::Rng& rng)
      : ConvBase(in_channels, out_channels, kernel, stride, pad, true, rng) {}

  const Tensor& forward(const Tensor& input) override;
  const Tensor& backward(const Tensor& grad_output) override;
  std::string name() const override { return "ConvTranspose2d"; }

 private:
  // [IC, N*H*W] input gathered channel-major by forward, read by dW.
  std::vector<float> gathered_;
};

}  // namespace zka::nn
