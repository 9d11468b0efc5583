#include "fl/registry.h"

#include <utility>

#include "util/check.h"

namespace zka::fl {

ClientRegistry::ClientRegistry(const data::Dataset& dataset,
                               std::vector<std::vector<std::int64_t>> parts,
                               models::ModelFactory factory,
                               data::LocalSgdOptions options)
    : dataset_(&dataset),
      parts_(std::move(parts)),
      factory_(std::move(factory)),
      options_(options),
      population_(static_cast<std::int64_t>(parts_.size())) {
  ZKA_CHECK(!parts_.empty(), "ClientRegistry: empty partition");
}

ClientRegistry::ClientRegistry(const data::Dataset& dataset,
                               data::HashedShardSpec spec,
                               models::ModelFactory factory,
                               data::LocalSgdOptions options)
    : dataset_(&dataset),
      spec_(spec),
      factory_(std::move(factory)),
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

std::vector<std::int64_t> ClientRegistry::shard(std::int64_t id) const {
  check_id(id);
  if (lazy()) return spec_->shard(id);
  return parts_[static_cast<std::size_t>(id)];
}

Client ClientRegistry::client(std::int64_t id) const {
  check_id(id);
  if (lazy()) return Client(id, *dataset_, *spec_, factory_, options_);
  return Client(id, *dataset_, parts_[static_cast<std::size_t>(id)], factory_,
                options_);
}

}  // namespace zka::fl
