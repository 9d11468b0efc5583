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
    : ZkaAttack(task, options, seed, 0x5ea, "zka_r/craft",
                "zka_r/classifier_train") {}

const tensor::Tensor& ZkaRAttack::synthesize(nn::Sequential& classifier) {
  ZKA_CHECK(options_.synthetic_size > 0 && options_.synthesis_epochs >= 0,
            "ZKA-R: synthetic_size=%lld, synthesis_epochs=%lld out of range",
            static_cast<long long>(options_.synthetic_size),
            static_cast<long long>(options_.synthesis_epochs));

  // Ambiguous soft target Y_D = [1/L, ..., 1/L] (per image, batch of 1).
  tensor::Tensor ambiguous({1, spec_.num_classes},
                           1.0f / static_cast<float>(spec_.num_classes));

  const std::int64_t s_count = options_.synthetic_size;
  images_ =
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
              images_.data().begin() + s * plane);
  }
  return images_;
}

}  // namespace zka::core
