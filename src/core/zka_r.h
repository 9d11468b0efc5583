// ZKA-R: zero-knowledge attack by Reverse engineering (Sec. IV-B, Fig. 2).
//
// For each of the |S| synthetic images: draw a random image A, push it
// through a single trainable convolutional filter layer to get image B,
// and train the filter — with the global classifier frozen — to minimize
// the cross-entropy between the classifier's prediction on B and the
// maximally ambiguous target Y_D = [1/L, ..., 1/L]. The resulting
// ambiguous set S (all labeled with decoy class Ỹ) then trains the
// malicious classifier with the distance-regularized loss.
#pragma once

#include <memory>

#include "attack/attack.h"
#include "core/zka_options.h"
#include "data/dataset.h"
#include "models/models.h"
#include "nn/loss.h"
#include "nn/sgd.h"
#include "util/rng.h"

namespace zka::core {

/// One filter-training epoch of ZKA-R's synthesis: push the random image
/// `a` through `filter` and the frozen `classifier`, take the cross-entropy
/// against the soft `target`, backpropagate through the classifier into the
/// filter and step the filter only (the classifier's gradients are zeroed,
/// never applied). Returns the loss. Allocation-free once the three have
/// seen the shapes.
double synthesis_epoch(nn::Module& filter, nn::Sgd& optimizer,
                       nn::Module& classifier, nn::SoftmaxCrossEntropy& loss,
                       const tensor::Tensor& a, const tensor::Tensor& target);

class ZkaRAttack : public attack::Attack {
 public:
  ZkaRAttack(models::Task task, ZkaOptions options, std::uint64_t seed);

  attack::Update craft(const attack::AttackContext& ctx) override;
  std::string name() const override {
    return options_.train_synthesis ? "ZKA-R" : "ZKA-R-static";
  }

  /// Decoy class Ỹ used for every synthetic image.
  std::int64_t decoy_label() const noexcept { return decoy_label_; }

  /// Re-weights the distance regularizer for subsequent rounds (used by
  /// the adaptive stealth extension).
  void set_classifier_lambda(double lambda);

  /// Per-epoch mean filter-training loss of the last craft() (Fig. 6).
  const std::vector<double>& synthesis_loss_history() const noexcept {
    return loss_history_;
  }

  /// Synthetic images produced by the last craft() (Fig. 4 analysis).
  const tensor::Tensor& last_synthetic_images() const noexcept {
    return last_images_;
  }

 private:
  models::Task task_;
  models::ImageSpec spec_;
  ZkaOptions options_;
  models::ModelFactory factory_;
  // The working classifier when the caller lends no replica (see
  // working_classifier); built by the first such craft.
  std::unique_ptr<nn::Sequential> classifier_;
  AdversarialTrainer trainer_;
  util::Rng rng_;
  std::int64_t decoy_label_;
  std::vector<double> loss_history_;
  tensor::Tensor last_images_;
};

}  // namespace zka::core
