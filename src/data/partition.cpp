#include "data/partition.h"

#include <algorithm>
#include <stdexcept>

#include "util/check.h"
#include "util/rng.h"

namespace zka::data {

std::vector<std::vector<std::int64_t>> iid_partition(std::int64_t n,
                                                     std::int64_t num_clients,
                                                     util::Rng& rng) {
  ZKA_CHECK(num_clients > 0, "iid_partition: num_clients %lld",
            static_cast<long long>(num_clients));
  ZKA_CHECK(n >= 0, "iid_partition: n %lld", static_cast<long long>(n));
  std::vector<std::int64_t> all(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) all[static_cast<std::size_t>(i)] = i;
  rng.shuffle(all);
  std::vector<std::vector<std::int64_t>> parts(
      static_cast<std::size_t>(num_clients));
  for (std::size_t i = 0; i < all.size(); ++i) {
    parts[i % static_cast<std::size_t>(num_clients)].push_back(all[i]);
  }
  return parts;
}

std::vector<std::vector<std::int64_t>> dirichlet_partition(
    const std::vector<std::int64_t>& labels, std::int64_t num_classes,
    std::int64_t num_clients, double beta, util::Rng& rng) {
  ZKA_CHECK(num_clients > 0, "dirichlet_partition: num_clients %lld",
            static_cast<long long>(num_clients));
  ZKA_CHECK(beta > 0.0, "dirichlet_partition: beta %g must be positive",
            beta);

  // Bucket sample indices by class, shuffled within each class.
  std::vector<std::vector<std::int64_t>> by_class(
      static_cast<std::size_t>(num_classes));
  for (std::size_t i = 0; i < labels.size(); ++i) {
    const std::int64_t y = labels[i];
    ZKA_CHECK(y >= 0 && y < num_classes,
              "dirichlet_partition: label %lld outside [0, %lld)",
              static_cast<long long>(y),
              static_cast<long long>(num_classes));
    by_class[static_cast<std::size_t>(y)].push_back(
        static_cast<std::int64_t>(i));
  }
  for (auto& bucket : by_class) rng.shuffle(bucket);

  std::vector<std::vector<std::int64_t>> parts(
      static_cast<std::size_t>(num_clients));
  for (const auto& bucket : by_class) {
    if (bucket.empty()) continue;
    const std::vector<double> props =
        rng.dirichlet(beta, static_cast<std::size_t>(num_clients));
    // Convert proportions to cumulative cut points over the bucket.
    std::size_t start = 0;
    double cum = 0.0;
    for (std::size_t c = 0; c < parts.size(); ++c) {
      cum += props[c];
      const std::size_t end =
          c + 1 == parts.size()
              ? bucket.size()
              : std::min(bucket.size(),
                         static_cast<std::size_t>(cum * bucket.size()));
      for (std::size_t i = start; i < end; ++i) parts[c].push_back(bucket[i]);
      start = end;
    }
  }

  // Guarantee non-empty clients: move one sample from the largest client.
  for (auto& part : parts) {
    if (!part.empty()) continue;
    auto largest = std::max_element(
        parts.begin(), parts.end(),
        [](const auto& a, const auto& b) { return a.size() < b.size(); });
    if (largest->size() <= 1) {
      throw std::runtime_error(
          "dirichlet_partition: not enough samples for all clients");
    }
    part.push_back(largest->back());
    largest->pop_back();
  }
  return parts;
}

HashedShardSpec::HashedShardSpec(std::int64_t dataset_size,
                                 std::int64_t population,
                                 std::int64_t samples_per_client,
                                 std::uint64_t seed)
    : dataset_size_(dataset_size),
      population_(population),
      shard_size_(std::min(samples_per_client, dataset_size)),
      seed_(seed) {
  ZKA_CHECK(dataset_size >= 0, "HashedShardSpec: dataset_size %lld",
            static_cast<long long>(dataset_size));
  ZKA_CHECK(population > 0, "HashedShardSpec: population %lld",
            static_cast<long long>(population));
  ZKA_CHECK(samples_per_client > 0,
            "HashedShardSpec: samples_per_client %lld",
            static_cast<long long>(samples_per_client));
}

std::vector<std::int64_t> HashedShardSpec::shard(std::int64_t client) const {
  std::vector<std::int64_t> indices;
  shard(client, indices);
  return indices;
}

void HashedShardSpec::shard(std::int64_t client,
                            std::vector<std::int64_t>& out) const {
  ZKA_CHECK(client >= 0 && client < population_,
            "HashedShardSpec: client %lld outside [0, %lld)",
            static_cast<long long>(client),
            static_cast<long long>(population_));
  if (shard_size_ == 0) {
    out.clear();
    return;
  }
  // Each client gets its own SplitMix64-derived stream, so shards are
  // independent of computation order and of every other client.
  std::uint64_t key =
      seed_ ^ (static_cast<std::uint64_t>(client) * 0x9e3779b97f4a7c15ULL +
               0x7f4a7c15ULL);
  util::Rng rng(util::splitmix64(key));
  rng.sample_without_replacement(static_cast<std::size_t>(dataset_size_),
                                 static_cast<std::size_t>(shard_size_), out);
}

}  // namespace zka::data
