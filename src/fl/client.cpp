#include "fl/client.h"

#include "util/check.h"
#include "util/rng.h"

namespace zka::fl {

Client::Client(std::int64_t id, const data::Dataset& dataset,
               std::span<const std::int64_t> indices,
               const models::ModelFactory& factory,
               data::LocalSgdOptions options)
    : id_(id), dataset_(&dataset), indices_(indices), factory_(&factory),
      options_(options) {}

Client::Client(std::int64_t id, const data::Dataset& dataset,
               const data::HashedShardSpec& spec,
               const models::ModelFactory& factory,
               data::LocalSgdOptions options)
    : id_(id), dataset_(&dataset), spec_(&spec), factory_(&factory),
      options_(options) {}

std::int64_t Client::num_samples() const noexcept {
  return spec_ != nullptr ? spec_->shard_size()
                          : static_cast<std::int64_t>(indices_.size());
}

void Client::shard(std::vector<std::int64_t>& out) const {
  if (spec_ != nullptr) {
    spec_->shard(id_, out);
  } else {
    out.assign(indices_.begin(), indices_.end());
  }
}

std::vector<float> Client::train(std::span<const float> global,
                                 std::uint64_t seed) const {
  data::TrainScratch scratch;
  std::vector<float> out;
  train(global, seed, scratch, out);
  return out;
}

void Client::train(std::span<const float> global, std::uint64_t seed,
                   data::TrainScratch& scratch, std::vector<float>& out) const {
  ZKA_CHECK(!global.empty(), "Client %lld: empty global model",
            static_cast<long long>(id_));
  util::Rng rng(seed);
  // The loader shuffles the kept buffer in place and hands it back.
  shard(scratch.indices);
  data::DataLoader loader(*dataset_, std::move(scratch.indices),
                          options_.batch_size);
  data::local_sgd(global, loader, options_, *factory_, rng, scratch, out);
  scratch.indices = std::move(loader).release_indices();
}

}  // namespace zka::fl
