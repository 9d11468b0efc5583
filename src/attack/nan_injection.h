// NaN injection — the degenerate data-free poisoning attack the ingress
// trust boundary exists for. The crafted update is the broadcast model with a
// handful of coordinates replaced by NaN (or +Inf): any mean-based rule
// that folds it without a finite check propagates the poison to every
// coordinate it touches, so a single sybil in a single round destroys the
// global model. Against the ingress sanitize layer (defense/sanitize.h,
// on by default) the poisoned coordinates are zeroed at admission and the
// attack degrades to a weak free-rider — the collapse/recovery pair is
// demonstrated end-to-end in tests/test_sanitize.cpp.
#pragma once

#include "attack/attack.h"

namespace zka::attack {

class NaNInjectionAttack : public Attack {
 public:
  /// Poisons every `stride`-th coordinate, alternating NaN and +Inf.
  /// stride = 1 poisons the whole update.
  explicit NaNInjectionAttack(std::size_t stride = 1) : stride_(stride) {}

  Update craft(const AttackContext& ctx) override;
  std::string name() const override { return "NaNInjection"; }

 private:
  std::size_t stride_;
};

}  // namespace zka::attack
