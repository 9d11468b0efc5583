#include "core/zka_r.h"

#include <algorithm>

#include "util/check.h"
#include "util/prof.h"

namespace zka::core {

double synthesis_epoch(nn::Module& filter, nn::Sgd& optimizer,
                       nn::Module& classifier, nn::SoftmaxCrossEntropy& loss,
                       const tensor::Tensor& a, const tensor::Tensor& target) {
  optimizer.zero_grad();
  classifier.zero_grad();
  const double l = loss.forward(classifier.forward(filter.forward(a)), target);
  // Backprop through the frozen classifier into the filter.
  filter.backward(classifier.backward(loss.backward()));
  optimizer.step();
  return l;
}

ZkaRAttack::ZkaRAttack(models::Task task, ZkaOptions options,
                       std::uint64_t seed)
    : task_(task),
      spec_(models::task_spec(task)),
      options_(options),
      factory_(models::task_model_factory(task)),
      trainer_(options.classifier),
      rng_(seed),
      decoy_label_(options.decoy_label >= 0
                       ? options.decoy_label
                       : static_cast<std::int64_t>(rng_.uniform_index(
                             static_cast<std::uint64_t>(
                                 spec_.num_classes)))) {}

void ZkaRAttack::set_classifier_lambda(double lambda) {
  options_.classifier.lambda = lambda;
  trainer_ = AdversarialTrainer(options_.classifier);
}

attack::Update ZkaRAttack::craft(const attack::AttackContext& ctx) {
  ZKA_PROF_SCOPE("zka_r/craft");
  attack::validate_context(*this, ctx);
  ZKA_CHECK(options_.synthetic_size > 0 && options_.synthesis_epochs >= 0,
            "ZKA-R: synthetic_size=%lld, synthesis_epochs=%lld out of range",
            static_cast<long long>(options_.synthetic_size),
            static_cast<long long>(options_.synthesis_epochs));

  // Frozen global classifier: parameters are loaded but never stepped.
  // The seed is drawn even when no model is built: the synthesis below
  // reads rng_ after this draw.
  nn::Sequential& classifier = working_classifier(
      ctx, classifier_, factory_, rng_.split(0x5ea)());
  nn::set_flat_params(classifier, ctx.global_model);

  // Ambiguous soft target Y_D = [1/L, ..., 1/L] (per image, batch of 1).
  tensor::Tensor ambiguous({1, spec_.num_classes},
                           1.0f / static_cast<float>(spec_.num_classes));

  const std::int64_t s_count = options_.synthetic_size;
  last_images_ =
      tensor::Tensor({s_count, spec_.channels, spec_.height, spec_.width});
  loss_history_.assign(
      static_cast<std::size_t>(std::max<std::int64_t>(
          options_.train_synthesis ? options_.synthesis_epochs : 0, 0)),
      0.0);

  nn::SoftmaxCrossEntropy loss;
  const std::int64_t plane = spec_.pixels();
  for (std::int64_t s = 0; s < s_count; ++s) {
    ZKA_PROF_SCOPE("zka_r/synthesize_sample");
    // Static random image A; only the filter layer is trainable.
    const tensor::Tensor a = tensor::Tensor::uniform(
        {1, spec_.channels, spec_.height, spec_.width}, rng_, -1.0f, 1.0f);
    util::Rng filter_rng = rng_.split(0xf117 + static_cast<std::uint64_t>(s));
    auto filter =
        models::make_filter_layer(spec_, options_.filter_kernel, filter_rng);
    nn::Sgd optimizer(*filter, {.learning_rate = options_.synthesis_lr});

    if (options_.train_synthesis) {
      for (std::int64_t epoch = 0; epoch < options_.synthesis_epochs;
           ++epoch) {
        const double l = synthesis_epoch(*filter, optimizer, classifier, loss,
                                         a, ambiguous);
        loss_history_[static_cast<std::size_t>(epoch)] +=
            l / static_cast<double>(s_count);
      }
    }
    const tensor::Tensor& b = filter->forward(a);
    std::copy(b.data().begin(), b.data().end(),
              last_images_.data().begin() + s * plane);
  }

  // Step 2: adversarial classifier training on (S, Ỹ) with L_d.
  nn::set_flat_params(classifier, ctx.global_model);
  {
    ZKA_PROF_SCOPE("zka_r/classifier_train");
    trainer_.train(classifier, last_images_, decoy_label_, ctx.global_model,
                   ctx.prev_global_model, rng_);
  }
  return nn::get_flat_params(classifier);
}

}  // namespace zka::core
