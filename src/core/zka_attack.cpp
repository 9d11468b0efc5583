#include "core/zka_attack.h"

#include "util/check.h"
#include "util/prof.h"
#include "util/thread_pool.h"

namespace zka::core {

ZkaAttack::ZkaAttack(models::Task task, ZkaOptions options,
                     std::uint64_t seed, std::uint64_t model_salt,
                     const char* craft_scope, const char* train_scope)
    : spec_(models::task_spec(task)),
      options_(options),
      rng_(seed),
      factory_(models::task_model_factory(task)),
      trainer_(options.classifier),
      decoy_label_(options.decoy_label >= 0
                       ? options.decoy_label
                       : static_cast<std::int64_t>(rng_.uniform_index(
                             static_cast<std::uint64_t>(
                                 spec_.num_classes)))),
      model_salt_(model_salt),
      craft_scope_(craft_scope),
      train_scope_(train_scope) {}

void ZkaAttack::set_classifier_lambda(double lambda) {
  options_.classifier.lambda = lambda;
  trainer_ = AdversarialTrainer(options_.classifier);
}

const tensor::Tensor& ZkaAttack::last_synthetic_images() const {
  ZKA_CHECK(images_ != nullptr, "%s: no craft() yet", name().c_str());
  return *images_;
}

attack::Update ZkaAttack::craft(const attack::AttackContext& ctx) {
  ZKA_PROF_SCOPE(craft_scope_);
  attack::validate_context(*this, ctx);

  // The seed is drawn even when no model is built: step 1 and step 2 read
  // rng_ after this draw.
  const std::uint64_t model_seed = rng_.split(model_salt_)();
  if (ctx.model_replica == nullptr && !classifier_) {
    classifier_ = factory_(model_seed);
  }
  nn::Sequential& classifier =
      ctx.model_replica != nullptr ? *ctx.model_replica : *classifier_;
  if (frozen_.empty()) {
    frozen_.resize(util::global_thread_pool().size() + 1);
    for (auto& replica : frozen_) {
      replica = factory_(0);
      replica->freeze();
    }
  }
  for (const auto& replica : frozen_) {
    nn::set_flat_params(*replica, ctx.global_model);
  }
  images_ = &synthesize(frozen_);

  // Step 2: adversarial classifier training on (S, Ỹ) with L_d.
  nn::set_flat_params(classifier, ctx.global_model);
  {
    ZKA_PROF_SCOPE(train_scope_);
    trainer_.train(classifier, *images_, decoy_label_, ctx.global_model,
                   ctx.prev_global_model, rng_);
  }
  return nn::get_flat_params(classifier);
}

}  // namespace zka::core
