#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <utility>

#include "attack/fang.h"
#include "attack/label_flip.h"
#include "attack/lie.h"
#include "attack/minmax.h"
#include "attack/random_weights.h"
#include "data/synthetic.h"
#include "util/rng.h"
#include "util/stats.h"

namespace zka::attack {
namespace {

struct Fixture {
  std::vector<float> global;
  std::vector<float> prev;
  std::vector<Update> benign;

  Fixture(std::size_t dim, std::size_t n_benign, std::uint64_t seed,
          double spread = 0.1) {
    util::Rng rng(seed);
    global.resize(dim);
    for (auto& x : global) x = static_cast<float>(rng.normal(0.0, 0.3));
    prev = global;
    benign.assign(n_benign, Update(dim));
    for (auto& u : benign) {
      for (std::size_t i = 0; i < dim; ++i) {
        u[i] = global[i] + static_cast<float>(rng.normal(0.05, spread));
      }
    }
  }

  AttackContext context() const {
    AttackContext ctx;
    ctx.global_model = global;
    ctx.prev_global_model = prev;
    ctx.benign_updates = &benign;
    ctx.round = 3;
    ctx.num_selected = 10;
    ctx.num_malicious_selected = 2;
    return ctx;
  }
};

TEST(ValidateContext, OmniscientAttackRequiresBenignUpdates) {
  LieAttack lie;
  Fixture fx(8, 5, 1);
  AttackContext ctx = fx.context();
  ctx.benign_updates = nullptr;
  EXPECT_THROW(lie.craft(ctx), std::invalid_argument);
  EXPECT_TRUE(lie.needs_benign_updates());
}

TEST(ValidateContext, RejectsSizeMismatches) {
  LieAttack lie;
  Fixture fx(8, 5, 2);
  AttackContext ctx = fx.context();
  std::vector<float> short_prev(4);
  ctx.prev_global_model = short_prev;
  EXPECT_THROW(lie.craft(ctx), std::invalid_argument);
}

// ---------- LIE ----------

TEST(Lie, ZFormulaMatchesQuantile) {
  // n=10, m=2: s = 10/2 + 1 - 2 = 4, benign = 8, p = (8-4)/8 = 0.5 -> z=0.
  EXPECT_NEAR(LieAttack::compute_z(10, 2), 0.0, 1e-9);
  // n=50, m=10: s = 16, benign = 40, p = 24/40 = 0.6.
  EXPECT_NEAR(LieAttack::compute_z(50, 10), util::inverse_normal_cdf(0.6),
              1e-9);
}

TEST(Lie, CraftedEqualsMeanPlusZStd) {
  Fixture fx(16, 6, 3);
  LieAttack lie(0.74);  // fixed z
  const Update crafted = lie.craft(fx.context());
  ASSERT_EQ(crafted.size(), 16u);
  for (std::size_t i = 0; i < 16; ++i) {
    std::vector<float> col;
    for (const auto& u : fx.benign) col.push_back(u[i]);
    const double expected =
        util::mean(std::span<const float>(col)) +
        0.74 * util::stddev(std::span<const float>(col));
    EXPECT_NEAR(crafted[i], expected, 1e-5);
  }
  EXPECT_DOUBLE_EQ(lie.last_z(), 0.74);
}

TEST(Lie, DerivedZUsedWhenNoOverride) {
  Fixture fx(8, 8, 4);
  LieAttack lie;
  AttackContext ctx = fx.context();
  ctx.num_selected = 50;
  ctx.num_malicious_selected = 10;
  lie.craft(ctx);
  EXPECT_NEAR(lie.last_z(), util::inverse_normal_cdf(0.6), 1e-9);
}

TEST(Lie, StaysCloseToBenignMeanForSmallZ) {
  Fixture fx(32, 8, 5);
  LieAttack lie(0.3);
  const Update crafted = lie.craft(fx.context());
  // A small-z LIE update must sit inside the benign cloud's envelope.
  for (std::size_t i = 0; i < crafted.size(); ++i) {
    float lo = fx.benign[0][i];
    float hi = lo;
    for (const auto& u : fx.benign) {
      lo = std::min(lo, u[i]);
      hi = std::max(hi, u[i]);
    }
    EXPECT_GE(crafted[i], lo - 0.5f);
    EXPECT_LE(crafted[i], hi + 0.5f);
  }
}

// ---------- Fang ----------

TEST(Fang, PushesOppositeToBenignDirection) {
  Fixture fx(12, 6, 6);
  FangAttack fang(99);
  const Update crafted = fang.craft(fx.context());
  ASSERT_EQ(crafted.size(), 12u);
  for (std::size_t i = 0; i < 12; ++i) {
    std::vector<float> col;
    for (const auto& u : fx.benign) col.push_back(u[i]);
    const double mean = util::mean(std::span<const float>(col));
    const float lo = *std::min_element(col.begin(), col.end());
    const float hi = *std::max_element(col.begin(), col.end());
    if (mean >= fx.global[i]) {
      EXPECT_LE(crafted[i], lo + 1e-6f) << "coord " << i;
    } else {
      EXPECT_GE(crafted[i], hi - 1e-6f) << "coord " << i;
    }
  }
}

TEST(Fang, DeterministicInSeed) {
  Fixture fx(8, 5, 7);
  FangAttack a(5);
  FangAttack b(5);
  EXPECT_EQ(a.craft(fx.context()), b.craft(fx.context()));
}

// ---------- Min-Max ----------

TEST(MinMax, RespectsMaxPairwiseDistanceBudget) {
  Fixture fx(24, 8, 8);
  MinMaxAttack attack(Perturbation::kInverseStd);
  const Update crafted = attack.craft(fx.context());

  double budget = 0.0;
  for (std::size_t i = 0; i < fx.benign.size(); ++i) {
    for (std::size_t j = i + 1; j < fx.benign.size(); ++j) {
      budget = std::max(budget,
                        util::l2_distance(fx.benign[i], fx.benign[j]));
    }
  }
  double worst = 0.0;
  for (const auto& u : fx.benign) {
    worst = std::max(worst, util::l2_distance(crafted, u));
  }
  EXPECT_LE(worst, budget * 1.05);
  EXPECT_GT(attack.last_gamma(), 0.0);
}

TEST(MinMax, MovesAwayFromBenignMean) {
  Fixture fx(24, 8, 9);
  MinMaxAttack attack(Perturbation::kInverseUnit);
  const Update crafted = attack.craft(fx.context());
  Update mean(24, 0.0f);
  for (const auto& u : fx.benign) {
    for (std::size_t i = 0; i < 24; ++i) mean[i] += u[i] / 8.0f;
  }
  EXPECT_GT(util::l2_distance(crafted, mean), 1e-4);
}

class PerturbationTest : public ::testing::TestWithParam<Perturbation> {};

TEST_P(PerturbationTest, AllVariantsProduceFiniteBoundedUpdates) {
  Fixture fx(16, 6, 10);
  MinMaxAttack attack(GetParam());
  const Update crafted = attack.craft(fx.context());
  for (const float v : crafted) EXPECT_TRUE(std::isfinite(v));
}

INSTANTIATE_TEST_SUITE_P(Variants, PerturbationTest,
                         ::testing::Values(Perturbation::kInverseUnit,
                                           Perturbation::kInverseStd,
                                           Perturbation::kInverseSign),
                         [](const auto& info) {
                           std::string name = perturbation_name(info.param);
                           for (auto& ch : name) {
                             if (ch == '-') ch = '_';
                           }
                           return name;
                         });

TEST(MinMax, IdenticalBenignUpdatesGiveZeroGamma) {
  Fixture fx(8, 5, 11, 0.0);
  for (auto& u : fx.benign) u = fx.benign[0];
  MinMaxAttack attack;
  const Update crafted = attack.craft(fx.context());
  // Budget is zero: the crafted update must collapse onto the mean.
  EXPECT_NEAR(util::l2_distance(crafted, fx.benign[0]), 0.0, 1e-4);
}

// ---------- Min-Max / Min-Sum worker-count invariance ----------
//
// The attacks compute their distances on the worker pool. These serial
// copies of the original loops pin the result bit for bit; CMake runs this
// binary at ZKA_THREADS = 1, 4 and 8.

Update serial_mean(const std::vector<Update>& benign) {
  Update mean(benign.front().size(), 0.0f);
  for (const Update& u : benign) {
    for (std::size_t i = 0; i < mean.size(); ++i) mean[i] += u[i];
  }
  for (auto& m : mean) m /= static_cast<float>(benign.size());
  return mean;
}

Update serial_crafted(const Update& mean, const Update& perturb,
                      double gamma) {
  Update u(mean.size());
  for (std::size_t i = 0; i < mean.size(); ++i) {
    u[i] = mean[i] + static_cast<float>(gamma) * perturb[i];
  }
  return u;
}

double serial_gamma(const Update& mean, const Update& perturb,
                    const std::function<bool(const Update&)>& fits) {
  double lo = 0.0;
  double hi = 1.0;
  if (fits(serial_crafted(mean, perturb, hi))) {
    while (fits(serial_crafted(mean, perturb, hi)) && hi < 1e6) {
      lo = hi;
      hi *= 2.0;
    }
  }
  for (int iter = 0; iter < 30 && hi - lo > 0.01 * std::max(1.0, lo);
       ++iter) {
    const double mid = 0.5 * (lo + hi);
    if (fits(serial_crafted(mean, perturb, mid))) lo = mid;
    else hi = mid;
  }
  return lo;
}

std::pair<Update, double> serial_min_max(const std::vector<Update>& benign,
                                         Perturbation kind) {
  const Update mean = serial_mean(benign);
  const Update perturb = perturbation_direction(kind, benign);
  double budget = 0.0;
  for (std::size_t i = 0; i < benign.size(); ++i) {
    for (std::size_t j = i + 1; j < benign.size(); ++j) {
      budget = std::max(budget, util::l2_distance(benign[i], benign[j]));
    }
  }
  auto fits = [&](const Update& u) {
    double worst = 0.0;
    for (const Update& b : benign) {
      worst = std::max(worst, util::l2_distance(u, b));
    }
    return worst <= budget;
  };
  const double gamma = serial_gamma(mean, perturb, fits);
  return {serial_crafted(mean, perturb, gamma), gamma};
}

std::pair<Update, double> serial_min_sum(const std::vector<Update>& benign,
                                         Perturbation kind) {
  const Update mean = serial_mean(benign);
  const Update perturb = perturbation_direction(kind, benign);
  double budget = 0.0;
  for (std::size_t i = 0; i < benign.size(); ++i) {
    double sum = 0.0;
    for (std::size_t j = 0; j < benign.size(); ++j) {
      const double d = util::l2_distance(benign[i], benign[j]);
      sum += d * d;
    }
    budget = std::max(budget, sum);
  }
  auto fits = [&](const Update& u) {
    double sum = 0.0;
    for (const Update& b : benign) {
      const double d = util::l2_distance(u, b);
      sum += d * d;
    }
    return sum <= budget;
  };
  const double gamma = serial_gamma(mean, perturb, fits);
  return {serial_crafted(mean, perturb, gamma), gamma};
}

void expect_bitwise(const Update& crafted, double gamma,
                    const std::pair<Update, double>& reference) {
  EXPECT_GT(reference.second, 0.0);  // the search moved off the mean
  ASSERT_EQ(crafted.size(), reference.first.size());
  EXPECT_EQ(std::memcmp(crafted.data(), reference.first.data(),
                        crafted.size() * sizeof(float)),
            0);
  EXPECT_EQ(std::memcmp(&gamma, &reference.second, sizeof(double)), 0)
      << gamma << " vs " << reference.second;
}

class WorkerCountInvarianceTest
    : public ::testing::TestWithParam<Perturbation> {};

TEST_P(WorkerCountInvarianceTest, MinMaxMatchesSerialLoopsBitwise) {
  // 23 benign rows, one straggler: the budget rows have uneven lengths.
  Fixture fx(301, 23, 21);
  for (auto& x : fx.benign[5]) x *= 3.0f;
  MinMaxAttack attack(GetParam());
  const Update crafted = attack.craft(fx.context());
  expect_bitwise(crafted, attack.last_gamma(),
                 serial_min_max(fx.benign, GetParam()));
}

TEST_P(WorkerCountInvarianceTest, MinSumMatchesSerialLoopsBitwise) {
  Fixture fx(301, 23, 22);
  for (auto& x : fx.benign[17]) x *= 3.0f;
  MinSumAttack attack(GetParam());
  const Update crafted = attack.craft(fx.context());
  expect_bitwise(crafted, attack.last_gamma(),
                 serial_min_sum(fx.benign, GetParam()));
}

INSTANTIATE_TEST_SUITE_P(Variants, WorkerCountInvarianceTest,
                         ::testing::Values(Perturbation::kInverseUnit,
                                           Perturbation::kInverseStd,
                                           Perturbation::kInverseSign),
                         [](const auto& info) {
                           std::string name = perturbation_name(info.param);
                           for (auto& ch : name) {
                             if (ch == '-') ch = '_';
                           }
                           return name;
                         });

// ---------- RandomWeights ----------

TEST(RandomWeights, WithinRangeAndNotNeedingBenign) {
  Fixture fx(64, 3, 12);
  RandomWeightsAttack attack(0.25f, 77);
  EXPECT_FALSE(attack.needs_benign_updates());
  AttackContext ctx = fx.context();
  ctx.benign_updates = nullptr;
  const Update crafted = attack.craft(ctx);
  for (const float v : crafted) {
    EXPECT_GE(v, -0.25f);
    EXPECT_LT(v, 0.25f);
  }
}

TEST(RandomWeights, FreshDrawEachRound) {
  Fixture fx(32, 3, 13);
  RandomWeightsAttack attack(0.5f, 78);
  AttackContext ctx = fx.context();
  ctx.benign_updates = nullptr;
  EXPECT_NE(attack.craft(ctx), attack.craft(ctx));
}

// ---------- LabelFlip ----------

TEST(LabelFlip, ProducesPlausibleButDifferentUpdate) {
  const auto dataset =
      data::make_synthetic_dataset(models::Task::kFashion, 24, 21);
  const auto factory = models::task_model_factory(models::Task::kFashion);
  auto global_model = factory(3);
  const std::vector<float> global = nn::get_flat_params(*global_model);

  LabelFlipAttack attack(dataset, {.local_epochs = 1}, 5);
  data::ReplicaSet replicas(factory);
  AttackContext ctx;
  ctx.global_model = global;
  ctx.prev_global_model = global;
  ctx.replicas = &replicas;
  const Update crafted = attack.craft(ctx);
  ASSERT_EQ(crafted.size(), global.size());
  EXPECT_GT(util::l2_distance(crafted, global), 1e-4);
  // One epoch of SGD must not fling weights far away.
  EXPECT_LT(util::l2_distance(crafted, global), 100.0);
}

}  // namespace
}  // namespace zka::attack
