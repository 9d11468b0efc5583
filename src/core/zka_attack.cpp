#include "core/zka_attack.h"

#include "util/check.h"
#include "util/prof.h"

namespace zka::core {

ZkaAttack::ZkaAttack(models::Task task, ZkaOptions options,
                     std::uint64_t seed, const char* craft_scope,
                     const char* train_scope)
    : spec_(models::task_spec(task)),
      options_(options),
      rng_(seed),
      trainer_(options.classifier),
      decoy_label_(options.decoy_label >= 0
                       ? options.decoy_label
                       : static_cast<std::int64_t>(rng_.uniform_index(
                             static_cast<std::uint64_t>(
                                 spec_.num_classes)))),
      craft_scope_(craft_scope),
      train_scope_(train_scope) {}

void ZkaAttack::set_classifier_lambda(double lambda) {
  options_.classifier.lambda = lambda;
  trainer_.set_lambda(lambda);
}

const tensor::Tensor& ZkaAttack::last_synthetic_images() const {
  ZKA_CHECK(images_ != nullptr, "%s: no craft() yet", name().c_str());
  return *images_;
}

attack::Update ZkaAttack::craft(const attack::AttackContext& ctx) {
  ZKA_PROF_SCOPE(craft_scope_);
  attack::validate_context(*this, ctx);
  data::ReplicaSet& replicas = attack::lent_replicas(*this, ctx);

  // Every craft opens with one draw that nothing reads: step 1 and step 2
  // draw their streams after it.
  static_cast<void>(rng_());
  images_ = &synthesize(replicas, ctx.global_model);

  // Step 2: adversarial classifier training on (S, Ỹ) with L_d.
  nn::Sequential& classifier = *replicas.mine().model;
  nn::set_flat_params(classifier, ctx.global_model);
  {
    ZKA_PROF_SCOPE(train_scope_);
    trainer_.train(classifier, *images_, decoy_label_, ctx.global_model,
                   ctx.prev_global_model, rng_);
  }
  return nn::get_flat_params(classifier);
}

}  // namespace zka::core
