// Step 2 of the ZKA framework (Sec. IV-A): train the malicious classifier
// on a synthetic (or real, for the Fig. 7 comparator) image set, all
// labeled with the decoy class Ỹ, minimizing cross-entropy plus the
// distance regularizer L_d.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/distance_reg.h"
#include "nn/loss.h"
#include "nn/sequential.h"
#include "tensor/tensor.h"
#include "util/rng.h"

namespace zka::core {

struct AdversarialTrainerOptions {
  // Defaults are tuned so the crafted update's deviation stays inside the
  // benign update cloud (several small steps let the L_d pull act; one
  // large step would overshoot before the regularizer can balance it).
  std::int64_t epochs = 5;
  std::int64_t batch_size = 32;
  float learning_rate = 0.01f;
  /// Weight of the distance regularizer; 0 disables it (Tab. V ablation).
  /// Sized against the aligned decoy-label CE gradients (see DESIGN.md).
  double lambda = 8.0;
};

class AdversarialTrainer {
 public:
  explicit AdversarialTrainer(AdversarialTrainerOptions options)
      : options_(options), regularizer_(options.lambda) {}

  /// Trains `model` (already holding w(t)) on (images, decoy_label) and
  /// returns the per-epoch mean total loss (CE + lambda * L_d), valid until
  /// the next call. The trainer keeps its order, batch, label, regularizer
  /// and loss buffers across calls, so a warm call on a model that has seen
  /// the batch shape allocates nothing.
  const std::vector<double>& train(nn::Sequential& model,
                                   const tensor::Tensor& images,
                                   std::int64_t decoy_label,
                                   std::span<const float> global,
                                   std::span<const float> prev_global,
                                   util::Rng& rng);

  /// Re-weights the distance regularizer for later calls.
  void set_lambda(double lambda);

  const AdversarialTrainerOptions& options() const noexcept {
    return options_;
  }

 private:
  AdversarialTrainerOptions options_;
  DistanceRegularizer regularizer_;
  nn::SoftmaxCrossEntropy loss_;
  std::vector<std::int64_t> order_;
  tensor::Tensor batch_;
  std::vector<std::int64_t> labels_;
  std::vector<float> reg_scratch_;
  std::vector<double> epoch_losses_;
};

}  // namespace zka::core
