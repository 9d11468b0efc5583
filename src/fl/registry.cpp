#include "fl/registry.h"

#include <utility>

#include "util/check.h"
#include "util/rng.h"

namespace zka::fl {

ClientRegistry::ClientRegistry(const data::Dataset& dataset,
                               std::vector<std::vector<std::int64_t>> parts,
                               data::LocalSgdOptions options)
    : dataset_(&dataset),
      parts_(std::move(parts)),
      options_(options),
      population_(static_cast<std::int64_t>(parts_.size())) {
  ZKA_CHECK(!parts_.empty(), "ClientRegistry: empty partition");
}

ClientRegistry::ClientRegistry(const data::Dataset& dataset,
                               data::HashedShardSpec spec,
                               data::LocalSgdOptions options)
    : dataset_(&dataset),
      spec_(spec),
      options_(options),
      population_(spec.population()) {
  ZKA_CHECK(spec.dataset_size() == dataset.size(),
            "ClientRegistry: spec covers %lld samples, dataset has %lld",
            static_cast<long long>(spec.dataset_size()),
            static_cast<long long>(dataset.size()));
}

void ClientRegistry::check_id(std::int64_t id) const {
  ZKA_CHECK(id >= 0 && id < population_,
            "ClientRegistry: client %lld outside [0, %lld)",
            static_cast<long long>(id),
            static_cast<long long>(population_));
}

std::int64_t ClientRegistry::num_samples(std::int64_t id) const {
  check_id(id);
  if (lazy()) return spec_->shard_size();
  return static_cast<std::int64_t>(parts_[static_cast<std::size_t>(id)].size());
}

void ClientRegistry::shard(std::int64_t id,
                           std::vector<std::int64_t>& out) const {
  check_id(id);
  if (lazy()) {
    spec_->shard(id, out);
  } else {
    const auto& part = parts_[static_cast<std::size_t>(id)];
    out.assign(part.begin(), part.end());
  }
}

void ClientRegistry::train(std::int64_t id, std::span<const float> global,
                           std::uint64_t seed, data::TrainScratch& scratch,
                           std::vector<float>& out) const {
  ZKA_CHECK(!global.empty(), "ClientRegistry: client %lld got an empty model",
            static_cast<long long>(id));
  shard(id, scratch.indices);
  util::Rng rng(seed);
  data::local_sgd(global, *dataset_, options_, rng, scratch, out);
}

}  // namespace zka::fl
