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

#include <memory>
#include <vector>

#include "core/zka_attack.h"
#include "nn/loss.h"
#include "nn/sgd.h"

namespace zka::core {

/// One filter-training epoch of ZKA-R's synthesis: push the random image
/// `a` through `filter` and the `classifier`, take the cross-entropy
/// against the soft `target`, backpropagate through the classifier into the
/// filter and step the filter only. The classifier is meant to be frozen
/// (Module::freeze), so the backward computes no gradient of its own; an
/// unfrozen one accumulates gradients that nothing reads. Returns the loss.
/// Allocation-free once the three have seen the shapes.
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
  /// Draws every sample's random image A and filter stream from rng_ in
  /// sample order, trains the |S| filters on the pool (each sample on its
  /// participant's replica and filter slot, the filter re-drawn from the
  /// sample's stream) and sums the per-epoch losses in sample order, so the
  /// result does not depend on the pool size. A warm craft allocates
  /// nothing per sample.
  const tensor::Tensor& synthesize(data::ReplicaSet& replicas,
                                   std::span<const float> global) override;

  // One pool participant's filter, its optimizer and its loss, kept across
  // samples and crafts; each sample re-draws the filter from its stream.
  struct FilterSlot {
    FilterSlot(const models::ImageSpec& spec, const ZkaOptions& options);
    std::unique_ptr<nn::Sequential> filter;
    nn::Sgd optimizer;
    nn::SoftmaxCrossEntropy loss;
  };

  tensor::Tensor images_;
  // Per sample, kept across crafts: the random image A, the filter's
  // initialization stream, and the per-epoch losses ([|S|, epochs]).
  std::vector<tensor::Tensor> sources_;
  std::vector<util::Rng> filter_rngs_;
  std::vector<double> sample_losses_;
  // One per participant of the global pool, built by the first craft.
  std::vector<FilterSlot> filter_slots_;
};

}  // namespace zka::core
