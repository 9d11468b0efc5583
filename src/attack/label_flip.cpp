#include "attack/label_flip.h"

namespace zka::attack {

LabelFlipAttack::LabelFlipAttack(data::Dataset dataset,
                                 models::ModelFactory factory,
                                 data::LocalSgdOptions options,
                                 std::uint64_t seed)
    : dataset_(std::move(dataset)), factory_(std::move(factory)),
      options_(options), rng_(seed) {
  // Flip labels once, up front.
  for (auto& y : dataset_.labels) y = dataset_.spec.num_classes - 1 - y;
}

Update LabelFlipAttack::craft(const AttackContext& ctx) {
  validate_context(*this, ctx);
  data::DataLoader loader(dataset_, options_.batch_size);
  Update update;
  data::local_sgd(ctx.global_model, loader, options_, factory_, rng_,
                  ctx.replicas != nullptr ? ctx.replicas->mine() : scratch_,
                  update);
  return update;
}

}  // namespace zka::attack
