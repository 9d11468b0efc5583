#include "attack/lie.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"
#include "util/stats.h"

namespace zka::attack {

void validate_context(const Attack& attack, const AttackContext& ctx) {
  const std::string name = attack.name();
  ZKA_CHECK(!ctx.global_model.empty(), "%s: empty global model", name.c_str());
  ZKA_CHECK(ctx.prev_global_model.size() == ctx.global_model.size(),
            "%s: prev model has %zu params, current has %zu", name.c_str(),
            ctx.prev_global_model.size(), ctx.global_model.size());
  ZKA_CHECK(ctx.round >= 0, "%s: negative round %lld", name.c_str(),
            static_cast<long long>(ctx.round));
  // Client-count invariants: K >= m >= 0 whenever K is provided (some unit
  // tests craft with K left at 0, which compute_z treats as degenerate).
  ZKA_CHECK(ctx.num_selected >= 0 && ctx.num_malicious_selected >= 0,
            "%s: negative client counts (K=%lld, m=%lld)", name.c_str(),
            static_cast<long long>(ctx.num_selected),
            static_cast<long long>(ctx.num_malicious_selected));
  ZKA_CHECK(ctx.num_selected == 0 ||
                ctx.num_malicious_selected <= ctx.num_selected,
            "%s: m=%lld malicious among K=%lld selected clients",
            name.c_str(), static_cast<long long>(ctx.num_malicious_selected),
            static_cast<long long>(ctx.num_selected));
  ZKA_CHECK(ctx.benign_median_weight >= 0,
            "%s: negative benign median weight %lld", name.c_str(),
            static_cast<long long>(ctx.benign_median_weight));
  if (attack.needs_benign_updates()) {
    ZKA_CHECK(ctx.benign_updates != nullptr && !ctx.benign_updates->empty(),
              "%s is omniscient and requires benign updates", name.c_str());
    for (std::size_t k = 0; k < ctx.benign_updates->size(); ++k) {
      const Update& u = (*ctx.benign_updates)[k];
      ZKA_CHECK(u.size() == ctx.global_model.size(),
                "%s: benign update %zu has %zu params, expected %zu",
                name.c_str(), k, u.size(), ctx.global_model.size());
    }
  }
}

data::ReplicaSet& lent_replicas(const Attack& attack,
                                const AttackContext& ctx) {
  ZKA_CHECK(ctx.replicas != nullptr,
            "%s trains a model and needs the caller's replicas",
            attack.name().c_str());
  return *ctx.replicas;
}

double LieAttack::compute_z(std::int64_t n, std::int64_t m) {
  // n participants, m of them malicious; s benign supporters needed.
  const std::int64_t s = n / 2 + 1 - m;
  const std::int64_t benign = n - m;
  if (benign <= 0) return 0.0;
  double p = static_cast<double>(benign - s) / static_cast<double>(benign);
  p = std::clamp(p, 1e-6, 1.0 - 1e-6);
  return util::inverse_normal_cdf(p);
}

Update LieAttack::craft(const AttackContext& ctx) {
  validate_context(*this, ctx);
  const auto& benign = *ctx.benign_updates;
  const std::size_t dim = ctx.global_model.size();
  const std::size_t nb = benign.size();

  last_z_ = z_override_ != 0.0
                ? z_override_
                : compute_z(ctx.num_selected, ctx.num_malicious_selected);

  Update crafted(dim);
  std::vector<float> column(nb);
  for (std::size_t i = 0; i < dim; ++i) {
    for (std::size_t k = 0; k < nb; ++k) column[k] = benign[k][i];
    const double mu = util::mean(std::span<const float>(column));
    const double sigma = util::stddev(std::span<const float>(column));
    crafted[i] = static_cast<float>(mu + last_z_ * sigma);
  }
  return crafted;
}

}  // namespace zka::attack
