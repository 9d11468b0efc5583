// ZKA-G: zero-knowledge attack with a Generator (Sec. IV-C, Fig. 3).
//
// A lightweight transposed-CNN generator G maps a *fixed* Gaussian latent
// batch Z (same seed every round, per the paper) to synthetic images
// S = G(Z). Each round, G is trained for E epochs to MAXIMIZE the frozen
// global classifier's cross-entropy against the decoy class Ỹ — steering
// generated images away from Ỹ — after which the malicious classifier is
// trained on (S, Ỹ) with the distance-regularized loss. The generator
// persists across rounds, so its drift tracks the global model's.
#pragma once

#include <memory>

#include "attack/attack.h"
#include "core/zka_options.h"
#include "models/models.h"
#include "nn/sequential.h"
#include "util/rng.h"

namespace zka::core {

class ZkaGAttack : public attack::Attack {
 public:
  ZkaGAttack(models::Task task, ZkaOptions options, std::uint64_t seed);

  attack::Update craft(const attack::AttackContext& ctx) override;
  std::string name() const override {
    return options_.train_synthesis ? "ZKA-G" : "ZKA-G-static";
  }

  std::int64_t decoy_label() const noexcept { return decoy_label_; }

  /// Re-weights the distance regularizer for subsequent rounds (used by
  /// the adaptive stealth extension).
  void set_classifier_lambda(double lambda);

  /// Per-epoch mean generator loss (positive cross-entropy vs Ỹ; the
  /// attack maximizes it) of the last craft() (Fig. 6).
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
  std::unique_ptr<nn::Sequential> generator_;
  tensor::Tensor latent_;  // fixed Z, [|S|, latent_dim]
  std::vector<double> loss_history_;
  tensor::Tensor last_images_;
};

}  // namespace zka::core
