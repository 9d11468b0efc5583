// Lazy client registry: the production-scale replacement for materializing
// one fl::Client per population member.
//
// Cross-device FL populations (10^5-10^6 devices, a few hundred sampled per
// round) make "a vector of all clients" the dominant memory cost of the
// simulator, even though at most clients_per_round of them ever train in a
// round. The registry instead stores only a *description* of the
// population — either a materialized per-client partition (the legacy
// small-n path: IID / Dirichlet label-skew shards) or a data::HashedShardSpec
// whose shards are computed on demand in O(shard) — and instantiates a
// Client only when the round sampler actually picks it. Sample counts are
// available without materialization, so FedAvg weights and the benign
// median weight cost O(k) per round, not O(population).
//
// Client training is a pure function of (shard, global model, seed), so
// the simulation's thread-count-invariance tests hold by construction.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "data/dataset.h"
#include "data/partition.h"
#include "fl/client.h"
#include "models/models.h"

namespace zka::fl {

class ClientRegistry {
 public:
  /// Eager registry over a materialized partition (legacy path; the
  /// population is parts.size()). `dataset` must outlive the registry.
  ClientRegistry(const data::Dataset& dataset,
                 std::vector<std::vector<std::int64_t>> parts,
                 models::ModelFactory factory, ClientOptions options);

  /// Registry over a lazy shard spec: shards exist only while a sampled
  /// client is live.
  ClientRegistry(const data::Dataset& dataset, data::HashedShardSpec spec,
                 models::ModelFactory factory, ClientOptions options);

  std::int64_t population() const noexcept { return population_; }

  /// True when shards are computed on demand (nothing stored per client).
  bool lazy() const noexcept { return spec_.has_value(); }

  /// Sample count of client `id` without materializing it: O(1) for lazy
  /// registries (every shard has spec.shard_size() samples).
  std::int64_t num_samples(std::int64_t id) const;

  /// Client `id`'s shard indices (computed on demand when lazy).
  std::vector<std::int64_t> shard(std::int64_t id) const;

  /// Materializes client `id`. Cheap: the client owns a copy of its shard
  /// index list and borrows everything else.
  Client client(std::int64_t id) const;

 private:
  void check_id(std::int64_t id) const;

  const data::Dataset* dataset_;
  std::optional<data::HashedShardSpec> spec_;
  std::vector<std::vector<std::int64_t>> parts_;  // empty when lazy
  models::ModelFactory factory_;
  ClientOptions options_;
  std::int64_t population_ = 0;
};

}  // namespace zka::fl
