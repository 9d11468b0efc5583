// Softmax + cross-entropy with hard labels or soft target distributions.
//
// Soft targets are what ZKA-R optimizes against (the maximally ambiguous
// Y_D = [1/L, ..., 1/L]); the sign-flippable `scale` is what ZKA-G uses to
// *maximize* cross-entropy w.r.t. the decoy label Ỹ (scale = -1).
#pragma once

#include <span>

#include "tensor/tensor.h"

namespace zka::nn {

using tensor::Tensor;

/// Row-wise numerically stable softmax of rank-2 logits.
Tensor softmax_rows(const Tensor& logits);
/// Same, into `probs` (resized in place).
void softmax_rows(const Tensor& logits, Tensor& probs);

class SoftmaxCrossEntropy {
 public:
  /// `scale` multiplies the loss (and thus its gradient); -1 turns
  /// minimization into maximization under a gradient-descent optimizer.
  explicit SoftmaxCrossEntropy(float scale = 1.0f) : scale_(scale) {}

  /// Mean cross-entropy over the batch against integer class labels.
  double forward(const Tensor& logits, std::span<const std::int64_t> labels);

  /// Mean cross-entropy against per-row target distributions [N, L].
  double forward(const Tensor& logits, const Tensor& soft_targets);

  /// Gradient w.r.t. the logits of the last forward call:
  /// scale * (softmax - target) / N. The reference is to a buffer this
  /// loss owns, valid until its next forward() or backward().
  const Tensor& backward();

 private:
  /// The loss of the current targets_ against `logits`; fills probs_.
  double evaluate(const Tensor& logits);

  float scale_;
  // Reused across calls, so a steady-state step allocates nothing.
  Tensor probs_;
  Tensor targets_;
  Tensor grad_;
};

/// Number of rows whose argmax (first on ties) equals the label.
std::int64_t correct_predictions(const Tensor& logits,
                                 std::span<const std::int64_t> labels);

}  // namespace zka::nn
