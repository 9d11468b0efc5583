// Adaptive stealth control — an extension in the paper's future-work
// direction, still strictly zero-knowledge.
//
// The attacker never learns the defense or whether it passed, but it can
// *infer* acceptance from the only thing it legitimately receives: the
// next broadcast global model. If its last submitted update was included
// in the aggregate, the global model moves measurably toward it. The
// wrapper exploits this feedback loop to tune the regularizer weight λ of
// an underlying ZKA attack each round:
//
//   inferred rejected -> multiply λ (be stealthier),
//   inferred accepted -> shrink λ toward λ_min (be more aggressive).
//
// Acceptance test: cosine between (w(t) - w(t-1)) and (m(t-1) - w(t-1)),
// where m(t-1) is the update we submitted last round, compared against a
// threshold. With K=10 honest updates pulling elsewhere, an included
// malicious update still tilts the mean toward itself noticeably.
#pragma once

#include <memory>

#include "core/zka_attack.h"

namespace zka::core {

struct AdaptiveOptions {
  double lambda_min = 2.0;
  double lambda_max = 64.0;
  /// Multiplier applied to lambda on inferred rejection; acceptance divides
  /// by its square root (slow to trust, quick to hide).
  double escalation = 2.0;
  /// Cosine threshold above which the attacker believes it was included.
  double accept_cosine = 0.05;
};

class AdaptiveZkaAttack : public attack::Attack {
 public:
  /// Wraps `inner`, starting from its lambda clamped to the adaptive range.
  AdaptiveZkaAttack(std::unique_ptr<ZkaAttack> inner,
                    AdaptiveOptions adaptive);

  attack::Update craft(const attack::AttackContext& ctx) override;
  std::string name() const override { return inner_->name() + "-adaptive"; }

  double current_lambda() const noexcept { return lambda_; }
  /// Rounds the attacker believes it passed / was filtered (telemetry).
  std::int64_t inferred_accepts() const noexcept { return accepts_; }
  std::int64_t inferred_rejects() const noexcept { return rejects_; }

 private:
  std::unique_ptr<ZkaAttack> inner_;
  AdaptiveOptions adaptive_;
  double lambda_;
  attack::Update last_submitted_;
  attack::Update last_global_;
  std::int64_t accepts_ = 0;
  std::int64_t rejects_ = 0;
};

}  // namespace zka::core
