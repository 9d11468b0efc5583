#include "attack/label_flip.h"

#include "data/loader.h"
#include "nn/loss.h"
#include "nn/sgd.h"
#include "util/rng.h"

namespace zka::attack {

LabelFlipAttack::LabelFlipAttack(data::Dataset dataset,
                                 models::ModelFactory factory,
                                 LabelFlipOptions options, std::uint64_t seed)
    : dataset_(std::move(dataset)), factory_(std::move(factory)),
      options_(options), rng_(seed) {
  // Flip labels once, up front.
  for (auto& y : dataset_.labels) y = dataset_.spec.num_classes - 1 - y;
}

Update LabelFlipAttack::craft(const AttackContext& ctx) {
  validate_context(*this, ctx);
  auto model = factory_(rng_.split(1)());
  nn::set_flat_params(*model, ctx.global_model);
  nn::Sgd optimizer(*model, {.learning_rate = options_.learning_rate});
  nn::SoftmaxCrossEntropy loss;
  data::DataLoader loader(dataset_, options_.batch_size);
  data::Batch batch;
  for (std::int64_t epoch = 0; epoch < options_.local_epochs; ++epoch) {
    loader.shuffle(rng_);
    for (std::int64_t b = 0; b < loader.num_batches(); ++b) {
      loader.batch(b, batch);
      nn::sgd_step(*model, optimizer, loss, batch.images, batch.labels);
    }
  }
  return nn::get_flat_params(*model);
}

}  // namespace zka::attack
