// 2-D convolution over NCHW input, lowered to GEMM via im2col.
#pragma once

#include <vector>

#include "nn/module.h"
#include "tensor/ops.h"

namespace zka::util {
class Rng;
}

namespace zka::nn {

class Conv2d : public Module {
 public:
  /// Square kernel / stride / symmetric padding. Weight layout is
  /// [out_channels, in_channels * kernel * kernel]; He-uniform init.
  Conv2d(std::int64_t in_channels, std::int64_t out_channels,
         std::int64_t kernel, std::int64_t stride, std::int64_t pad,
         util::Rng& rng);

  const Tensor& forward(const Tensor& input) override;
  const Tensor& backward(const Tensor& grad_output) override;
  std::span<Parameter* const> parameters() override { return params_; }
  std::string name() const override { return "Conv2d"; }

  std::int64_t in_channels() const noexcept { return in_channels_; }
  std::int64_t out_channels() const noexcept { return out_channels_; }
  std::int64_t kernel() const noexcept { return kernel_; }

 private:
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
  // col_: [patch, N*OH*OW] im2col of the input (forward), read by the
  //       weight-gradient GEMM in backward and then overwritten with the
  //       column-space input gradient Wᵀ@dY. Backward therefore needs only
  //       col_ and the input shape, never the input itself. The whole
  //       batch is lowered and multiplied in one GEMM.
  // The [OC, N*OH*OW] GEMM output (forward) / gathered dY (backward) lives
  // only within one call, so one per-thread buffer serves every Conv2d.
  std::vector<float> col_;
  Tensor act_;  // output after forward, input gradient after backward
};

}  // namespace zka::nn
