#include "core/adaptive_zka.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"
#include "util/stats.h"

namespace zka::core {

AdaptiveZkaAttack::AdaptiveZkaAttack(std::unique_ptr<ZkaAttack> inner,
                                     AdaptiveOptions adaptive)
    : inner_(std::move(inner)), adaptive_(adaptive) {
  ZKA_CHECK(inner_ != nullptr, "AdaptiveZka: no attack to wrap");
  ZKA_CHECK(adaptive_.lambda_min <= adaptive_.lambda_max &&
                adaptive_.escalation > 0.0,
            "AdaptiveZka: lambda range [%g, %g], escalation %g",
            adaptive_.lambda_min, adaptive_.lambda_max,
            adaptive_.escalation);
  lambda_ = std::clamp(inner_->options().classifier.lambda,
                       adaptive_.lambda_min, adaptive_.lambda_max);
  inner_->set_classifier_lambda(lambda_);
}

attack::Update AdaptiveZkaAttack::craft(const attack::AttackContext& ctx) {
  attack::validate_context(*this, ctx);
  // Infer last round's fate from how the global model actually moved.
  if (!last_submitted_.empty() &&
      last_global_.size() == ctx.global_model.size()) {
    std::vector<float> global_move(ctx.global_model.size());
    std::vector<float> our_direction(ctx.global_model.size());
    for (std::size_t i = 0; i < global_move.size(); ++i) {
      global_move[i] = ctx.global_model[i] - last_global_[i];
      our_direction[i] = last_submitted_[i] - last_global_[i];
    }
    const double cosine =
        util::cosine_similarity(global_move, our_direction);
    if (cosine >= adaptive_.accept_cosine) {
      ++accepts_;
      lambda_ /= std::sqrt(adaptive_.escalation);
    } else {
      ++rejects_;
      lambda_ *= adaptive_.escalation;
    }
    lambda_ = std::clamp(lambda_, adaptive_.lambda_min,
                         adaptive_.lambda_max);
    inner_->set_classifier_lambda(lambda_);
  }

  attack::Update crafted = inner_->craft(ctx);
  last_submitted_ = crafted;
  last_global_.assign(ctx.global_model.begin(), ctx.global_model.end());
  return crafted;
}

}  // namespace zka::core
