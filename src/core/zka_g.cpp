#include "core/zka_g.h"

#include "nn/loss.h"
#include "nn/sgd.h"
#include "util/check.h"
#include "util/prof.h"

namespace zka::core {

ZkaGAttack::ZkaGAttack(models::Task task, ZkaOptions options,
                       std::uint64_t seed)
    : ZkaAttack(task, options, seed, "zka_g/craft",
                "zka_g/classifier_train") {
  ZKA_CHECK(options_.latent_dim > 0 && options_.synthetic_size > 0,
            "ZKA-G: latent_dim=%lld, synthetic_size=%lld out of range",
            static_cast<long long>(options_.latent_dim),
            static_cast<long long>(options_.synthetic_size));
  util::Rng gen_rng = rng_.split(0x9e4);
  generator_ = models::make_tcnn_generator(spec_, options_.latent_dim,
                                           gen_rng);
  // Fixed latent batch: "we use the same random seed over multiple rounds".
  latent_ = tensor::Tensor::normal({options_.synthetic_size,
                                    options_.latent_dim},
                                   gen_rng);
}

const tensor::Tensor& ZkaGAttack::synthesize(data::ReplicaSet& replicas,
                                             std::span<const float> global) {
  // The generator trains through the calling participant's classifier,
  // frozen at w(t).
  nn::Sequential& classifier = *replicas.mine().model;
  nn::set_flat_params(classifier, global);
  const nn::FreezeScope frozen(classifier);
  const std::vector<std::int64_t> decoy_labels(
      static_cast<std::size_t>(options_.synthetic_size), decoy_label());
  loss_history_.clear();

  if (options_.train_synthesis) {
    // Maximize CE(classifier(G(Z)), Ỹ): scale = -1 under gradient descent.
    nn::SoftmaxCrossEntropy loss(-1.0f);
    nn::Sgd optimizer(*generator_, options_.synthesis_lr);
    for (std::int64_t epoch = 0; epoch < options_.synthesis_epochs; ++epoch) {
      ZKA_PROF_SCOPE("zka_g/generator_epoch");
      optimizer.zero_grad();
      const double scaled = loss.forward(
          classifier.forward(generator_->forward(latent_)), decoy_labels);
      generator_->backward(classifier.backward(loss.backward()));
      optimizer.step();
      // Record the raw (positive) cross-entropy the attack is maximizing.
      loss_history_.push_back(-scaled);
    }
  }

  images_ = generator_->forward(latent_);
  return images_;
}

}  // namespace zka::core
