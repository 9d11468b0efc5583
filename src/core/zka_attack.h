// The ZKA framework's two steps (Sec. IV-A). Step 1 produces an image set:
// ZKA-R trains a filter layer, ZKA-G a generator, and the Fig. 7
// comparator takes its own real images. Step 2, shared by all of them and
// owned by this base: train the malicious classifier on that set, every
// image labeled with the decoy class Ỹ, under cross-entropy plus the
// distance regularizer L_d. A variant supplies only its step-1 hook.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "attack/attack.h"
#include "core/zka_options.h"
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

  /// Loads w(t) into the frozen classifier replicas and runs step 1 on
  /// them, then loads w(t) into the working classifier (the replica the
  /// caller lends in ctx, else one of its own kept across crafts), trains
  /// it on the step-1 images and returns its parameters.
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
  /// `model_salt` keys the per-craft draw of the working classifier's
  /// seed; `craft_scope` and `train_scope` label the util/prof scopes of
  /// the whole craft and of step 2 (null: untimed).
  ZkaAttack(models::Task task, ZkaOptions options, std::uint64_t seed,
            std::uint64_t model_salt, const char* craft_scope,
            const char* train_scope);

  using FrozenReplicas = std::span<const std::unique_ptr<nn::Sequential>>;

  /// Step 1: the images step 2 trains on, valid until the next call.
  /// `frozen` holds one frozen classifier replica per participant of the
  /// global thread pool, indexed by ThreadPool::participant_index(), each
  /// loaded with w(t); a participant may run its own replica freely.
  virtual const tensor::Tensor& synthesize(FrozenReplicas frozen) = 0;

  models::ImageSpec spec_;
  ZkaOptions options_;
  util::Rng rng_;
  std::vector<double> loss_history_;

 private:
  models::ModelFactory factory_;
  AdversarialTrainer trainer_;
  std::int64_t decoy_label_;
  std::uint64_t model_salt_;
  const char* craft_scope_;
  const char* train_scope_;
  // The working classifier when the caller lends no replica; built by the
  // first such craft. Never frozen.
  std::unique_ptr<nn::Sequential> classifier_;
  // Step 1's frozen replicas, one per pool participant; built by the first
  // craft and reloaded by every craft.
  std::vector<std::unique_ptr<nn::Sequential>> frozen_;
  const tensor::Tensor* images_ = nullptr;
};

}  // namespace zka::core
