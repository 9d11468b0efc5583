#include "data/local_sgd.h"

#include <algorithm>

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
  ZKA_CHECK(options.batch_size > 0, "local_sgd: batch_size %lld",
            static_cast<long long>(options.batch_size));
  static_cast<void>(rng());
  nn::Sequential& model = *scratch.model;
  nn::set_flat_params(model, global);
  nn::Sgd optimizer(model, options.learning_rate);
  const std::span<const std::int64_t> rows(scratch.indices);
  const auto batch = static_cast<std::size_t>(options.batch_size);
  for (std::int64_t epoch = 0; epoch < options.local_epochs; ++epoch) {
    rng.shuffle(scratch.indices);
    for (std::size_t begin = 0; begin < rows.size(); begin += batch) {
      gather_batch(dataset,
                   rows.subspan(begin, std::min(batch, rows.size() - begin)),
                   scratch.batch);
      nn::sgd_step(model, optimizer, scratch.loss, scratch.batch.images,
                   scratch.batch.labels);
    }
  }
  nn::get_flat_params(model, out);
}

}  // namespace zka::data
