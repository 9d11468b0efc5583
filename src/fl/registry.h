// The client population: the one module that knows where a client's shard
// comes from, and the one that trains a client on it.
//
// Cross-device FL populations (10^5-10^6 devices, a few hundred sampled per
// round) make "a vector of all clients" the dominant memory cost of the
// simulator, even though at most clients_per_round of them ever train in a
// round. The registry instead stores only a *description* of the
// population — either a materialized per-client partition (the legacy
// small-n path: IID / Dirichlet label-skew shards) or a data::HashedShardSpec
// whose shards are computed on demand in O(shard) — and computes a shard
// only when the round sampler picks its client. Sample counts are
// available without materialization, so FedAvg weights and the benign
// median weight cost O(k) per round, not O(population).
//
// Client training is a pure function of (shard, global model, seed), so
// the simulation's thread-count-invariance tests hold by construction.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "data/dataset.h"
#include "data/local_sgd.h"
#include "data/partition.h"

namespace zka::fl {

class ClientRegistry {
 public:
  /// Eager registry over a materialized partition (legacy path; the
  /// population is parts.size()). `dataset` must outlive the registry.
  ClientRegistry(const data::Dataset& dataset,
                 std::vector<std::vector<std::int64_t>> parts,
                 data::LocalSgdOptions options);

  /// Registry over a lazy shard spec: shards exist only while a sampled
  /// client trains.
  ClientRegistry(const data::Dataset& dataset, data::HashedShardSpec spec,
                 data::LocalSgdOptions options);

  std::int64_t population() const noexcept { return population_; }

  /// True when shards are computed on demand (nothing stored per client).
  bool lazy() const noexcept { return spec_.has_value(); }

  /// Sample count of client `id` without materializing it: O(1) for lazy
  /// registries (every shard has spec.shard_size() samples).
  std::int64_t num_samples(std::int64_t id) const;

  /// Client `id`'s shard indices into `out` (computed on demand when
  /// lazy), in the order every train() starts shuffling from. A kept
  /// `out` makes the call allocation-free.
  void shard(std::int64_t id, std::vector<std::int64_t>& out) const;

  /// Trains client `id` by local SGD (Eq. 1) from `global` on
  /// scratch.model, which must be built, and writes the trained parameters
  /// into `out`. Deterministic in (id, global, seed), whatever the model
  /// held before; concurrent calls need distinct scratches. A warm scratch
  /// makes the call allocation-free.
  void train(std::int64_t id, std::span<const float> global,
             std::uint64_t seed, data::TrainScratch& scratch,
             std::vector<float>& out) const;

 private:
  void check_id(std::int64_t id) const;

  const data::Dataset* dataset_;
  std::optional<data::HashedShardSpec> spec_;
  std::vector<std::vector<std::int64_t>> parts_;  // empty when lazy
  data::LocalSgdOptions options_;
  std::int64_t population_ = 0;
};

}  // namespace zka::fl
