#include "attack/minmax.h"

#include <algorithm>
#include <cmath>

#include "util/stats.h"
#include "util/thread_pool.h"

namespace zka::attack {

const char* perturbation_name(Perturbation p) noexcept {
  switch (p) {
    case Perturbation::kInverseUnit: return "inverse-unit";
    case Perturbation::kInverseStd: return "inverse-std";
    case Perturbation::kInverseSign: return "inverse-sign";
  }
  return "?";
}

Update perturbation_direction(Perturbation kind,
                              const std::vector<Update>& benign) {
  const std::size_t dim = benign.front().size();
  const std::size_t nb = benign.size();
  Update mean(dim, 0.0f);
  for (const Update& u : benign) {
    for (std::size_t i = 0; i < dim; ++i) mean[i] += u[i];
  }
  for (auto& m : mean) m /= static_cast<float>(nb);

  Update perturb(dim, 0.0f);
  switch (kind) {
    case Perturbation::kInverseUnit: {
      const double norm = util::l2_norm(mean);
      for (std::size_t i = 0; i < dim; ++i) {
        perturb[i] = norm > 0.0
                         ? static_cast<float>(-static_cast<double>(mean[i]) /
                                              norm)
                         : 0.0f;
      }
      break;
    }
    case Perturbation::kInverseStd: {
      std::vector<float> column(nb);
      for (std::size_t i = 0; i < dim; ++i) {
        for (std::size_t k = 0; k < nb; ++k) column[k] = benign[k][i];
        perturb[i] = static_cast<float>(
            -util::stddev(std::span<const float>(column)));
      }
      break;
    }
    case Perturbation::kInverseSign: {
      for (std::size_t i = 0; i < dim; ++i) {
        perturb[i] = mean[i] > 0.0f ? -1.0f : (mean[i] < 0.0f ? 1.0f : 0.0f);
      }
      break;
    }
  }
  return perturb;
}

namespace {

Update crafted_from(const Update& mean, const Update& perturb, double gamma) {
  Update u(mean.size());
  for (std::size_t i = 0; i < mean.size(); ++i) {
    u[i] = mean[i] + static_cast<float>(gamma) * perturb[i];
  }
  return u;
}

Update benign_mean(const std::vector<Update>& benign) {
  Update mean(benign.front().size(), 0.0f);
  for (const Update& u : benign) {
    for (std::size_t i = 0; i < mean.size(); ++i) mean[i] += u[i];
  }
  for (auto& m : mean) m /= static_cast<float>(benign.size());
  return mean;
}

// slots[i] = row(i), one pool task per index. Each row is a serial pure
// function of i, so a caller that reduces the slots in index order gets the
// serial loop's bits for any worker count.
std::vector<double> per_index(std::size_t n,
                              const std::function<double(std::size_t)>& row) {
  std::vector<double> slots(n);
  util::global_thread_pool().parallel_for(
      n, [&](std::size_t i) { slots[i] = row(i); });
  return slots;
}

// ||u - b_j|| for every benign update b_j, in index order.
std::vector<double> distances_to(const Update& u,
                                 const std::vector<Update>& benign) {
  return per_index(benign.size(), [&](std::size_t j) {
    return util::l2_distance(u, benign[j]);
  });
}

}  // namespace

double maximize_gamma(const Update& mean, const Update& perturb,
                      const std::function<bool(const Update&)>& fits) {
  double lo = 0.0;
  double hi = 1.0;
  while (fits(crafted_from(mean, perturb, hi)) && hi < 1e6) {
    lo = hi;
    hi *= 2.0;
  }
  for (int iter = 0; iter < 30 && hi - lo > 0.01 * std::max(1.0, lo);
       ++iter) {
    const double mid = 0.5 * (lo + hi);
    if (fits(crafted_from(mean, perturb, mid))) lo = mid;
    else hi = mid;
  }
  return lo;
}

Update MinMaxAttack::craft(const AttackContext& ctx) {
  validate_context(*this, ctx);
  const auto& benign = *ctx.benign_updates;
  const Update mean = benign_mean(benign);
  const Update perturb = perturbation_direction(perturbation_, benign);

  // Budget: max pairwise distance among benign updates. max is exact and
  // order-free, so per-row maxima reduce to the serial loop's value.
  const std::size_t n = benign.size();
  const std::vector<double> row_max = per_index(n, [&](std::size_t i) {
    double worst = 0.0;
    for (std::size_t j = i + 1; j < n; ++j) {
      worst = std::max(worst, util::l2_distance(benign[i], benign[j]));
    }
    return worst;
  });
  double budget = 0.0;
  for (const double r : row_max) budget = std::max(budget, r);
  auto fits = [&](const Update& u) {
    double worst = 0.0;
    for (const double d : distances_to(u, benign)) worst = std::max(worst, d);
    return worst <= budget;
  };
  last_gamma_ = maximize_gamma(mean, perturb, fits);
  return crafted_from(mean, perturb, last_gamma_);
}

Update MinSumAttack::craft(const AttackContext& ctx) {
  validate_context(*this, ctx);
  const auto& benign = *ctx.benign_updates;
  const Update mean = benign_mean(benign);
  const Update perturb = perturbation_direction(perturbation_, benign);

  // Budget: max over benign i of sum_j ||b_i - b_j||^2, each row summed in
  // index order.
  const std::size_t n = benign.size();
  const std::vector<double> row_sum = per_index(n, [&](std::size_t i) {
    double sum = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      const double d = util::l2_distance(benign[i], benign[j]);
      sum += d * d;
    }
    return sum;
  });
  double budget = 0.0;
  for (const double r : row_sum) budget = std::max(budget, r);
  auto fits = [&](const Update& u) {
    double sum = 0.0;
    for (const double d : distances_to(u, benign)) sum += d * d;
    return sum <= budget;
  };
  last_gamma_ = maximize_gamma(mean, perturb, fits);
  return crafted_from(mean, perturb, last_gamma_);
}

}  // namespace zka::attack
