// Elementwise activations. Each writes its output into one buffer it owns
// and takes its derivative from that output alone, so backward() rewrites
// the same buffer into the input gradient: one buffer per layer, no copy
// of the input.
#pragma once

#include "nn/module.h"

namespace zka::nn {

class ReLU : public Module {
 public:
  const Tensor& forward(const Tensor& input) override;
  /// Masks by the output (> 0 exactly where the input was > 0; a NaN input
  /// maps to 0 and blocks its gradient).
  const Tensor& backward(const Tensor& grad_output) override;
  std::string name() const override { return "ReLU"; }

 private:
  Tensor buf_;  // output after forward, input gradient after backward
};

class Tanh : public Module {
 public:
  const Tensor& forward(const Tensor& input) override;
  const Tensor& backward(const Tensor& grad_output) override;
  std::string name() const override { return "Tanh"; }

 private:
  Tensor buf_;
};

}  // namespace zka::nn
