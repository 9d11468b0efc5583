// Untargeted-attack interface.
//
// Per the paper's threat model (Sec. III), all malicious clients selected in
// a round submit the *same* crafted update, computed by one adversarial
// party. The simulator therefore calls craft() once per round and clones
// the result. Zero-knowledge attacks (ZKA-R/ZKA-G, in src/core) see only
// the current and previous global models; the omniscient baselines (LIE,
// Fang, Min-Max) additionally receive the round's benign updates, matching
// their stronger published threat models.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace zka::data {
class ReplicaSet;
}

namespace zka::attack {

using Update = std::vector<float>;

struct AttackContext {
  /// Current global model w(t), as distributed by the server.
  std::span<const float> global_model;
  /// Previous global model w(t-1); equals w(t) in the first round.
  std::span<const float> prev_global_model;
  /// Benign updates of this round; nullptr/empty unless the attack declares
  /// needs_benign_updates(). Zero-knowledge attacks must not read this.
  const std::vector<Update>* benign_updates = nullptr;
  /// Round index, starting at 0.
  std::int64_t round = 0;
  /// Number of clients selected this round (K).
  std::int64_t num_selected = 0;
  /// Number of malicious clients among the selected (m).
  std::int64_t num_malicious_selected = 0;
  /// The task's public training configuration (known to everyone).
  float learning_rate = 0.01f;
  /// Median sample count reported by this round's sampled benign clients
  /// (the server does not verify client-reported counts, so this is what a
  /// weight-blending attacker would mimic). 1 when no benign client was
  /// sampled. Input to Attack::reported_weight.
  std::int64_t benign_median_weight = 1;
  /// Models of the task's architecture, one per participant of the global
  /// thread pool, that the attack may use as working space: their
  /// parameters and buffers are overwritten, and the caller reloads them
  /// before its own next use. The simulator lends the replicas it trains
  /// and evaluates on, so crafting adds no model of its own. The attacks
  /// that train a model (the ZKA variants, Real-data, label flip) require
  /// it; the others ignore it.
  data::ReplicaSet* replicas = nullptr;
};

class Attack {
 public:
  virtual ~Attack() = default;

  /// Crafts the malicious update for this round.
  virtual Update craft(const AttackContext& ctx) = 0;

  /// True for omniscient baselines that require ctx.benign_updates.
  virtual bool needs_benign_updates() const noexcept { return false; }

  /// The FedAvg sample count every sybil reports alongside the crafted
  /// update. Sample counts are client-reported and unverifiable in FL, so
  /// this is an attacker-chosen quantity, not a property of the (possibly
  /// empty) shards the adversary's clients happen to own — the simulator
  /// used to silently substitute max(shard_size, 1), fabricating a weight
  /// the paper's threat model never states. The default blends in with the
  /// round's benign population by reporting its median sample count.
  virtual std::int64_t reported_weight(const AttackContext& ctx) const {
    return ctx.benign_median_weight;
  }

  virtual std::string name() const = 0;
};

/// Throws std::invalid_argument if an omniscient attack is invoked without
/// benign updates, or a context field is inconsistent.
void validate_context(const Attack& attack, const AttackContext& ctx);

/// ctx.replicas, for an attack that trains a model; throws
/// std::invalid_argument when the caller lent none.
data::ReplicaSet& lent_replicas(const Attack& attack, const AttackContext& ctx);

}  // namespace zka::attack
