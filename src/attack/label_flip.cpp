#include "attack/label_flip.h"

#include <numeric>

namespace zka::attack {

LabelFlipAttack::LabelFlipAttack(data::Dataset dataset,
                                 data::LocalSgdOptions options,
                                 std::uint64_t seed)
    : dataset_(std::move(dataset)), options_(options), rng_(seed) {
  // Flip labels once, up front.
  for (auto& y : dataset_.labels) y = dataset_.spec.num_classes - 1 - y;
}

Update LabelFlipAttack::craft(const AttackContext& ctx) {
  validate_context(*this, ctx);
  data::TrainScratch& scratch = lent_replicas(*this, ctx).mine();
  scratch.indices.resize(static_cast<std::size_t>(dataset_.size()));
  std::iota(scratch.indices.begin(), scratch.indices.end(), std::int64_t{0});
  Update update;
  data::local_sgd(ctx.global_model, dataset_, options_, rng_, scratch, update);
  return update;
}

}  // namespace zka::attack
