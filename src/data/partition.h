// Client data partitioning: IID and Dirichlet(β) label-skew (the paper's
// heterogeneity model, Sec. V-A), plus the lazy hashed shard spec used by
// the production-scale cross-device simulator.
#pragma once

#include <cstdint>
#include <vector>

namespace zka::util {
class Rng;
}

namespace zka::data {

/// Shuffles indices [0, n) and deals them round-robin to `num_clients`.
std::vector<std::vector<std::int64_t>> iid_partition(std::int64_t n,
                                                     std::int64_t num_clients,
                                                     util::Rng& rng);

/// Label-skew partition: for each class, the per-client share of that
/// class's samples is drawn from Dirichlet(beta, ..., beta). Smaller beta
/// means more heterogeneity. Clients that end up empty are topped up with
/// one sample stolen from the largest client, so every client can train.
std::vector<std::vector<std::int64_t>> dirichlet_partition(
    const std::vector<std::int64_t>& labels, std::int64_t num_classes,
    std::int64_t num_clients, double beta, util::Rng& rng);

/// Lazy cross-device partition spec: client c's shard is a deterministic
/// function of (seed, c), computed on demand in O(samples_per_client) —
/// nothing is stored per client, so a population of 10^6 devices costs a
/// few machine words until a client is actually sampled. Each device owns
/// `samples_per_client` distinct indices drawn uniformly from the training
/// pool (devices share pool samples, modelling per-device draws from the
/// same data distribution rather than an exact disjoint split — with
/// population >> dataset_size a disjoint split would leave almost every
/// device empty).
class HashedShardSpec {
 public:
  /// Requires dataset_size >= 0, population > 0, samples_per_client > 0.
  /// Shards are clamped to dataset_size samples.
  HashedShardSpec(std::int64_t dataset_size, std::int64_t population,
                  std::int64_t samples_per_client, std::uint64_t seed);

  std::int64_t dataset_size() const noexcept { return dataset_size_; }
  std::int64_t population() const noexcept { return population_; }
  /// Every client's shard has exactly this many samples (the clamp above).
  std::int64_t shard_size() const noexcept { return shard_size_; }

  /// Client `client`'s shard indices. Deterministic in (seed, client);
  /// independent of any other client's shard having been computed.
  std::vector<std::int64_t> shard(std::int64_t client) const;
  /// The same shard into `out`, also its working space (see
  /// Rng::sample_without_replacement): a kept `out` makes it
  /// allocation-free.
  void shard(std::int64_t client, std::vector<std::int64_t>& out) const;

 private:
  std::int64_t dataset_size_ = 0;
  std::int64_t population_ = 0;
  std::int64_t shard_size_ = 0;
  std::uint64_t seed_ = 0;
};

}  // namespace zka::data
