// The ZKA framework's two steps (Sec. IV-A). Step 1 produces an image set:
// ZKA-R trains a filter layer, ZKA-G a generator, and the Fig. 7
// comparator takes its own real images. Step 2, shared by all of them and
// owned by this base: train the malicious classifier on that set, every
// image labeled with the decoy class Ỹ, under cross-entropy plus the
// distance regularizer L_d. A variant supplies only its step-1 hook.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "attack/attack.h"
#include "core/zka_options.h"
#include "data/local_sgd.h"
#include "models/models.h"
#include "nn/sequential.h"
#include "tensor/tensor.h"
#include "util/rng.h"

namespace zka::core {

class ZkaAttack : public attack::Attack {
 public:
  // Not copyable or movable: it keeps a pointer to its last step-1 images,
  // which a variant owns.
  ZkaAttack(const ZkaAttack&) = delete;
  ZkaAttack& operator=(const ZkaAttack&) = delete;

  /// Runs step 1 on the classifier replicas the caller lends in ctx
  /// (std::invalid_argument when it lends none), then loads w(t) into the
  /// calling participant's replica, trains it on the step-1 images and
  /// returns its parameters.
  attack::Update craft(const attack::AttackContext& ctx) final;

  /// Decoy class Ỹ used for every image.
  std::int64_t decoy_label() const noexcept { return decoy_label_; }
  const ZkaOptions& options() const noexcept { return options_; }

  /// Re-weights the distance regularizer for subsequent rounds (used by
  /// the adaptive stealth extension).
  void set_classifier_lambda(double lambda);

  /// Per-epoch mean step-1 training loss of the last craft() (Fig. 6);
  /// empty when step 1 trains nothing.
  const std::vector<double>& synthesis_loss_history() const noexcept {
    return loss_history_;
  }

  /// The images the last craft() trained the classifier on: the synthetic
  /// set S (Fig. 4 analysis), or the comparator's real images. Throws
  /// before the first craft().
  const tensor::Tensor& last_synthetic_images() const;

 protected:
  /// `craft_scope` and `train_scope` label the util/prof scopes of
  /// the whole craft and of step 2 (null: untimed).
  ZkaAttack(models::Task task, ZkaOptions options, std::uint64_t seed,
            const char* craft_scope, const char* train_scope);

  /// Step 1: the images step 2 trains on, valid until the next call.
  /// `replicas` holds one classifier replica per participant of the global
  /// thread pool, in any state: a variant loads w(t) (`global`) into those
  /// it runs and keeps each frozen (nn::FreezeScope) while it does.
  virtual const tensor::Tensor& synthesize(data::ReplicaSet& replicas,
                                           std::span<const float> global) = 0;

  models::ImageSpec spec_;
  ZkaOptions options_;
  util::Rng rng_;
  std::vector<double> loss_history_;

 private:
  AdversarialTrainer trainer_;
  std::int64_t decoy_label_;
  const char* craft_scope_;
  const char* train_scope_;
  const tensor::Tensor* images_ = nullptr;
};

}  // namespace zka::core
