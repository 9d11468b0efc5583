// ZKA-R: zero-knowledge attack by Reverse engineering (Sec. IV-B, Fig. 2).
//
// For each of the |S| synthetic images: draw a random image A, push it
// through a single trainable convolutional filter layer to get image B,
// and train the filter — with the global classifier frozen — to minimize
// the cross-entropy between the classifier's prediction on B and the
// maximally ambiguous target Y_D = [1/L, ..., 1/L]. The resulting
// ambiguous set S (all labeled with decoy class Ỹ) then trains the
// malicious classifier with the distance-regularized loss.
#pragma once

#include "core/zka_attack.h"
#include "nn/loss.h"
#include "nn/sgd.h"

namespace zka::core {

/// One filter-training epoch of ZKA-R's synthesis: push the random image
/// `a` through `filter` and the frozen `classifier`, take the cross-entropy
/// against the soft `target`, backpropagate through the classifier into the
/// filter and step the filter only (the classifier's gradients are zeroed,
/// never applied). Returns the loss. Allocation-free once the three have
/// seen the shapes.
double synthesis_epoch(nn::Module& filter, nn::Sgd& optimizer,
                       nn::Module& classifier, nn::SoftmaxCrossEntropy& loss,
                       const tensor::Tensor& a, const tensor::Tensor& target);

class ZkaRAttack : public ZkaAttack {
 public:
  ZkaRAttack(models::Task task, ZkaOptions options, std::uint64_t seed);

  std::string name() const override {
    return options_.train_synthesis ? "ZKA-R" : "ZKA-R-static";
  }

 private:
  const tensor::Tensor& synthesize(nn::Sequential& classifier) override;

  tensor::Tensor images_;
};

}  // namespace zka::core
