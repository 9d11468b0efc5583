// Classic label-flipping data poisoning (Tolpegin et al., ESORICS 2020) —
// an extension baseline beyond the paper's comparison set. The attacker
// *does* own data here; it trains the local model on labels mapped
// y -> (L - 1) - y.
#pragma once

#include "attack/attack.h"
#include "data/dataset.h"
#include "data/local_sgd.h"
#include "util/rng.h"

namespace zka::attack {

class LabelFlipAttack : public Attack {
 public:
  LabelFlipAttack(data::Dataset dataset, data::LocalSgdOptions options,
                  std::uint64_t seed);

  /// Trains the calling participant's replica of ctx.replicas (required)
  /// on the whole flipped dataset.
  Update craft(const AttackContext& ctx) override;
  std::string name() const override { return "LabelFlip"; }

 private:
  data::Dataset dataset_;
  data::LocalSgdOptions options_;
  util::Rng rng_;
};

}  // namespace zka::attack
