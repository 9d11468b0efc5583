// Plain stochastic gradient descent: w -= learning_rate * grad.
#pragma once

#include <span>

#include "nn/loss.h"
#include "nn/module.h"

namespace zka::nn {

class Sgd {
 public:
  /// Steps `module`'s parameters through the list the module keeps, which
  /// must outlive the optimizer. Allocates nothing.
  Sgd(Module& module, float learning_rate);

  /// Applies one update from the accumulated gradients.
  void step();

  /// Zeroes the gradients of all managed parameters.
  void zero_grad();

 private:
  std::span<Parameter* const> params_;
  float learning_rate_;
};

/// One supervised step: zero the gradients, forward `images`, take the
/// cross-entropy against `labels`, backpropagate and step. Returns the
/// loss. Allocation-free once `model` and `loss` have seen the batch shape.
double sgd_step(Module& model, Sgd& optimizer, SoftmaxCrossEntropy& loss,
                const Tensor& images, std::span<const std::int64_t> labels);

}  // namespace zka::nn
