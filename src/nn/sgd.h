// Stochastic gradient descent with optional momentum and weight decay.
#pragma once

#include <span>
#include <vector>

#include "nn/loss.h"
#include "nn/module.h"

namespace zka::nn {

struct SgdOptions {
  float learning_rate = 0.01f;
  float momentum = 0.0f;
  float weight_decay = 0.0f;
};

class Sgd {
 public:
  /// Steps `params`, a list the optimizer keeps.
  Sgd(std::vector<Parameter*> params, SgdOptions options);
  /// Steps `module`'s parameters through the list the module keeps, which
  /// must outlive the optimizer; without momentum this allocates nothing.
  explicit Sgd(Module& module, SgdOptions options);
  // params_ may point into owned_.
  Sgd(const Sgd&) = delete;
  Sgd& operator=(const Sgd&) = delete;

  /// Applies one update from the accumulated gradients.
  void step();

  /// Zeroes the gradients of all managed parameters.
  void zero_grad();

  float learning_rate() const noexcept { return options_.learning_rate; }
  void set_learning_rate(float lr) noexcept { options_.learning_rate = lr; }

 private:
  void init_velocity();

  std::vector<Parameter*> owned_;  // empty when the list is a module's
  std::span<Parameter* const> params_;
  SgdOptions options_;
  std::vector<Tensor> velocity_;  // allocated lazily when momentum != 0
};

/// One supervised step: zero the gradients, forward `images`, take the
/// cross-entropy against `labels`, backpropagate and step. Returns the
/// loss. Allocation-free once `model` and `loss` have seen the batch shape.
double sgd_step(Module& model, Sgd& optimizer, SoftmaxCrossEntropy& loss,
                const Tensor& images, std::span<const std::int64_t> labels);

}  // namespace zka::nn
