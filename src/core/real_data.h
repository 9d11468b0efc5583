// The Fig. 7 comparator: identical to the ZKA step-2 pipeline (decoy label
// Ỹ + distance-regularized classifier training), but on REAL attacker-owned
// images instead of synthesized ones. The paper shows ZKA's synthetic data
// beats this, i.e. data crafted for the attack outperforms data the task
// was designed on.
#pragma once

#include "core/zka_attack.h"
#include "data/dataset.h"

namespace zka::core {

class RealDataAttack : public ZkaAttack {
 public:
  /// `dataset` is the attacker's real data (assigned under the same
  /// Dirichlet distribution as benign clients in the paper's setup).
  RealDataAttack(models::Task task, data::Dataset dataset, ZkaOptions options,
                 std::uint64_t seed);

  std::string name() const override { return "Real-data"; }

 private:
  /// Step 1 is the attacker's own images, as they are.
  const tensor::Tensor& synthesize(
      data::ReplicaSet& /*replicas*/,
      std::span<const float> /*global*/) override {
    return dataset_.images;
  }

  data::Dataset dataset_;
};

}  // namespace zka::core
