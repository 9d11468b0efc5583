#include "fl/client.h"

#include "util/check.h"
#include "util/rng.h"

namespace zka::fl {

Client::Client(std::int64_t id, const data::Dataset& dataset,
               std::vector<std::int64_t> indices, models::ModelFactory factory,
               data::LocalSgdOptions options)
    : id_(id), dataset_(&dataset), indices_(std::move(indices)),
      factory_(std::move(factory)), options_(options) {}

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
  data::DataLoader loader(*dataset_, indices_, options_.batch_size);
  data::local_sgd(global, loader, options_, factory_, rng, scratch, out);
}

}  // namespace zka::fl
