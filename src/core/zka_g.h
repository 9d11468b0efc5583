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

#include "core/zka_attack.h"

namespace zka::core {

class ZkaGAttack : public ZkaAttack {
 public:
  ZkaGAttack(models::Task task, ZkaOptions options, std::uint64_t seed);

  std::string name() const override {
    return options_.train_synthesis ? "ZKA-G" : "ZKA-G-static";
  }

 private:
  /// Trains the generator through the calling participant's replica,
  /// loaded with w(t) and frozen while it does (its per-epoch loss, the
  /// positive cross-entropy vs Ỹ the attack maximizes, is the synthesis
  /// loss history) and returns G(Z).
  const tensor::Tensor& synthesize(data::ReplicaSet& replicas,
                                   std::span<const float> global) override;

  std::unique_ptr<nn::Sequential> generator_;
  tensor::Tensor latent_;  // fixed Z, [|S|, latent_dim]
  tensor::Tensor images_;
};

}  // namespace zka::core
