#include "data/local_sgd.h"

#include "nn/sgd.h"
#include "util/check.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace zka::data {

ReplicaSet::ReplicaSet(models::ModelFactory factory)
    : factory_(std::move(factory)),
      slots_(util::global_thread_pool().size() + 1) {}

TrainScratch& ReplicaSet::mine() {
  return slot(util::global_thread_pool().participant_index());
}

TrainScratch& ReplicaSet::slot(std::size_t p) {
  TrainScratch& s = slots_.at(p);
  if (!s.model) s.model = factory_(0);
  return s;
}

void ReplicaSet::load(std::span<const float> params) {
  for (std::size_t p = 0; p < slots_.size(); ++p) {
    nn::set_flat_params(model(p), params);
  }
}

void local_sgd(std::span<const float> global, const Dataset& dataset,
               const LocalSgdOptions& options, util::Rng& rng,
               TrainScratch& scratch, std::vector<float>& out) {
  ZKA_CHECK(scratch.model != nullptr, "local_sgd: the scratch has no model");
  static_cast<void>(rng());
  nn::Sequential& model = *scratch.model;
  nn::set_flat_params(model, global);
  nn::Sgd optimizer(model, {.learning_rate = options.learning_rate});
  // The loader shuffles the kept index list in place and hands it back.
  DataLoader loader(dataset, std::move(scratch.indices), options.batch_size);
  for (std::int64_t epoch = 0; epoch < options.local_epochs; ++epoch) {
    loader.shuffle(rng);
    for (std::int64_t b = 0; b < loader.num_batches(); ++b) {
      loader.batch(b, scratch.batch);
      nn::sgd_step(model, optimizer, scratch.loss, scratch.batch.images,
                   scratch.batch.labels);
    }
  }
  scratch.indices = std::move(loader).release_indices();
  nn::get_flat_params(model, out);
}

}  // namespace zka::data
