// Fully connected layer: y = x @ Wᵀ + b over rank-2 [batch, features] input.
#pragma once

#include "nn/module.h"

namespace zka::util {
class Rng;
}

namespace zka::nn {

class Linear : public Module {
 public:
  /// He-uniform initialized weights [out_features, in_features], zero bias.
  Linear(std::int64_t in_features, std::int64_t out_features, util::Rng& rng);

  const Tensor& forward(const Tensor& input) override;
  /// Reads the forward input for dW (borrowed, see Module::forward).
  const Tensor& backward(const Tensor& grad_output) override;
  std::span<Parameter* const> parameters() override { return params_; }
  std::string name() const override { return "Linear"; }

  std::int64_t in_features() const noexcept { return in_features_; }
  std::int64_t out_features() const noexcept { return out_features_; }

 private:
  std::int64_t in_features_;
  std::int64_t out_features_;
  Parameter weight_;
  Parameter bias_;
  Parameter* params_[2] = {&weight_, &bias_};
  const Tensor* input_ = nullptr;  // the last forward's input, borrowed
  Tensor act_;  // output after forward, input gradient after backward
};

}  // namespace zka::nn
