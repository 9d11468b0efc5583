// Transposed (fractionally strided) 2-D convolution over NCHW input.
//
// Used by the ZKA-G generator (TCNN) to upsample a latent feature map into
// an image. Implemented as the exact adjoint of Conv2d: forward scatters
// with col2im, backward gathers with im2col.
#pragma once

#include <vector>

#include "nn/module.h"
#include "tensor/ops.h"

namespace zka::util {
class Rng;
}

namespace zka::nn {

class ConvTranspose2d : public Module {
 public:
  /// Output spatial size: (H-1)*stride - 2*pad + kernel.
  /// Weight layout: [in_channels, out_channels * kernel * kernel]
  /// (mirrors torch's ConvTranspose2d [in, out, kH, kW]).
  ConvTranspose2d(std::int64_t in_channels, std::int64_t out_channels,
                  std::int64_t kernel, std::int64_t stride, std::int64_t pad,
                  util::Rng& rng);

  const Tensor& forward(const Tensor& input) override;
  const Tensor& backward(const Tensor& grad_output) override;
  std::span<Parameter* const> parameters() override { return params_; }
  std::string name() const override { return "ConvTranspose2d"; }

 private:
  std::int64_t in_channels_;
  std::int64_t out_channels_;
  std::int64_t kernel_;
  std::int64_t stride_;
  std::int64_t pad_;
  Parameter weight_;
  Parameter bias_;
  Parameter* params_[2] = {&weight_, &bias_};
  // Input extents of the last forward; batch_ is -1 before any.
  std::int64_t batch_ = -1;
  std::int64_t in_h_ = 0;
  std::int64_t in_w_ = 0;
  // Geometry of the *equivalent forward conv* that maps the transposed
  // conv's output back to its input: in_channels = out_channels_ here.
  tensor::ConvGeometry geometry_{};
  // Scratch arenas reused across forward/backward calls (one big GEMM over
  // the batch instead of one per sample).
  // xperm_: [IC, N*H*W] input gathered channel-major (forward, reused by
  //         the weight-gradient GEMM in backward).
  // col_:   [patch, N*H*W] column matrix — Wᵀ@x in forward, im2col of the
  //         output gradient in backward.
  // buf_:   [IC, N*H*W] input gradient before scattering back to NCHW.
  std::vector<float> xperm_;
  std::vector<float> col_;
  std::vector<float> buf_;
  Tensor act_;  // output after forward, input gradient after backward
};

}  // namespace zka::nn
