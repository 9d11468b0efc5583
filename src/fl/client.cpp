#include "fl/client.h"

#include "nn/sgd.h"
#include "util/check.h"
#include "util/rng.h"

namespace zka::fl {

Client::Client(std::int64_t id, const data::Dataset& dataset,
               std::vector<std::int64_t> indices, models::ModelFactory factory,
               ClientOptions options)
    : id_(id), dataset_(&dataset), indices_(std::move(indices)),
      factory_(std::move(factory)), options_(options) {}

std::vector<float> Client::train(std::span<const float> global,
                                 std::uint64_t seed) const {
  TrainScratch scratch;
  std::vector<float> out;
  train(global, seed, scratch, out);
  return out;
}

void Client::train(std::span<const float> global, std::uint64_t seed,
                   TrainScratch& scratch, std::vector<float>& out) const {
  ZKA_CHECK(!global.empty(), "Client %lld: empty global model",
            static_cast<long long>(id_));
  util::Rng rng(seed);
  // Drawn whether or not a replica is built: the shuffle below reads the
  // stream after this draw.
  const std::uint64_t model_seed = rng.split(1)();
  if (!scratch.model) scratch.model = factory_(model_seed);
  nn::Sequential& model = *scratch.model;
  nn::set_flat_params(model, global);
  if (indices_.empty()) {
    nn::get_flat_params(model, out);
    return;
  }

  nn::Sgd optimizer(model, {.learning_rate = options_.learning_rate});
  data::DataLoader loader(*dataset_, indices_, options_.batch_size);
  for (std::int64_t epoch = 0; epoch < options_.local_epochs; ++epoch) {
    loader.shuffle(rng);
    for (std::int64_t b = 0; b < loader.num_batches(); ++b) {
      loader.batch(b, scratch.batch);
      nn::sgd_step(model, optimizer, scratch.loss, scratch.batch.images,
                   scratch.batch.labels);
    }
  }
  nn::get_flat_params(model, out);
}

}  // namespace zka::fl
