#include "data/local_sgd.h"

#include "nn/sgd.h"
#include "util/rng.h"

namespace zka::data {

void local_sgd(std::span<const float> global, DataLoader& loader,
               const LocalSgdOptions& options,
               const models::ModelFactory& factory, util::Rng& rng,
               TrainScratch& scratch, std::vector<float>& out,
               nn::Sequential* lent) {
  const std::uint64_t model_seed = rng.split(1)();
  if (lent == nullptr && !scratch.model) scratch.model = factory(model_seed);
  nn::Sequential& model = lent != nullptr ? *lent : *scratch.model;
  nn::set_flat_params(model, global);
  nn::Sgd optimizer(model, {.learning_rate = options.learning_rate});
  for (std::int64_t epoch = 0; epoch < options.local_epochs; ++epoch) {
    loader.shuffle(rng);
    for (std::int64_t b = 0; b < loader.num_batches(); ++b) {
      loader.batch(b, scratch.batch);
      nn::sgd_step(model, optimizer, scratch.loss, scratch.batch.images,
                   scratch.batch.labels);
    }
  }
  nn::get_flat_params(model, out);
}

}  // namespace zka::data
