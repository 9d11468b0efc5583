#include "core/zka_r.h"

#include <algorithm>

#include "util/check.h"
#include "util/prof.h"
#include "util/thread_pool.h"

namespace zka::core {

double synthesis_epoch(nn::Module& filter, nn::Sgd& optimizer,
                       nn::Module& classifier, nn::SoftmaxCrossEntropy& loss,
                       const tensor::Tensor& a, const tensor::Tensor& target) {
  optimizer.zero_grad();
  const double l = loss.forward(classifier.forward(filter.forward(a)), target);
  // Backprop through the frozen classifier into the filter.
  filter.backward(classifier.backward(loss.backward()));
  optimizer.step();
  return l;
}

ZkaRAttack::ZkaRAttack(models::Task task, ZkaOptions options,
                       std::uint64_t seed)
    : ZkaAttack(task, options, seed, "zka_r/craft",
                "zka_r/classifier_train") {}

// The filter's initial draws come from a throwaway stream: every sample
// re-draws it from its own before use.
ZkaRAttack::FilterSlot::FilterSlot(const models::ImageSpec& spec,
                                   const ZkaOptions& options)
    : filter([&] {
        util::Rng unused(0);
        return models::make_filter_layer(spec, options.filter_kernel, unused);
      }()),
      optimizer(*filter, options.synthesis_lr) {}

const tensor::Tensor& ZkaRAttack::synthesize(data::ReplicaSet& replicas,
                                             std::span<const float> global) {
  ZKA_CHECK(options_.synthetic_size > 0 && options_.synthesis_epochs >= 0,
            "ZKA-R: synthetic_size=%lld, synthesis_epochs=%lld out of range",
            static_cast<long long>(options_.synthetic_size),
            static_cast<long long>(options_.synthesis_epochs));

  // Ambiguous soft target Y_D = [1/L, ..., 1/L] (per image, batch of 1).
  const tensor::Tensor ambiguous({1, spec_.num_classes},
                                 1.0f / static_cast<float>(spec_.num_classes));

  const std::int64_t s_count = options_.synthetic_size;
  const std::int64_t epochs =
      options_.train_synthesis ? options_.synthesis_epochs : 0;
  images_.resize({s_count, spec_.channels, spec_.height, spec_.width});

  // The samples' draws from rng_, in the order one sample after another
  // would make them: its static random image A, then its filter's stream.
  sources_.resize(static_cast<std::size_t>(s_count));
  filter_rngs_.resize(static_cast<std::size_t>(s_count));
  for (std::int64_t s = 0; s < s_count; ++s) {
    const auto i = static_cast<std::size_t>(s);
    sources_[i].resize({1, spec_.channels, spec_.height, spec_.width});
    sources_[i].fill_uniform(rng_, -1.0f, 1.0f);
    filter_rngs_[i] = rng_.split(0xf117 + static_cast<std::uint64_t>(s));
  }

  // Each sample trains its own filter (the only trainable layer) through
  // its participant's classifier, frozen for the sample, and writes its own
  // image row and loss row.
  replicas.load(global);
  sample_losses_.resize(static_cast<std::size_t>(s_count * epochs));
  util::ThreadPool& pool = util::global_thread_pool();
  while (filter_slots_.size() <= pool.size()) {
    filter_slots_.emplace_back(spec_, options_);
  }
  const std::int64_t plane = spec_.pixels();
  pool.parallel_for(static_cast<std::size_t>(s_count), [&](std::size_t i) {
    ZKA_PROF_SCOPE("zka_r/synthesize_sample");
    nn::Sequential& classifier = *replicas.mine().model;
    const nn::FreezeScope frozen(classifier);
    FilterSlot& slot = filter_slots_[pool.participant_index()];
    nn::Sequential& filter = *slot.filter;
    models::redraw_filter_layer(filter, filter_rngs_[i]);
    const tensor::Tensor& a = sources_[i];
    double* losses =
        sample_losses_.data() + i * static_cast<std::size_t>(epochs);
    for (std::int64_t epoch = 0; epoch < epochs; ++epoch) {
      losses[epoch] = synthesis_epoch(filter, slot.optimizer, classifier,
                                      slot.loss, a, ambiguous);
    }
    const tensor::Tensor& b = filter.forward(a);
    std::copy(b.data().begin(), b.data().end(),
              images_.data().begin() + static_cast<std::int64_t>(i) * plane);
  });

  // Summed in sample order, so the bits do not depend on the pool size.
  loss_history_.assign(static_cast<std::size_t>(epochs), 0.0);
  for (std::int64_t s = 0; s < s_count; ++s) {
    for (std::int64_t epoch = 0; epoch < epochs; ++epoch) {
      loss_history_[static_cast<std::size_t>(epoch)] +=
          sample_losses_[static_cast<std::size_t>(s * epochs + epoch)] /
          static_cast<double>(s_count);
    }
  }
  return images_;
}

}  // namespace zka::core
