// DnC spectral defense tests.
#include "defense/dnc.h"

#include <gtest/gtest.h>

#include "attack/fang.h"
#include "defense/krum.h"
#include "util/rng.h"
#include "util/stats.h"

namespace zka::defense {
namespace {

std::vector<std::int64_t> unit_weights(std::size_t n) {
  return std::vector<std::int64_t>(n, 1);
}

std::vector<Update> cluster_plus_outliers(std::size_t benign,
                                          std::size_t mal, std::size_t dim,
                                          float offset, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<Update> updates;
  for (std::size_t i = 0; i < benign; ++i) {
    Update u(dim);
    for (auto& x : u) x = static_cast<float>(rng.normal(0.0, 0.1));
    updates.push_back(std::move(u));
  }
  for (std::size_t i = 0; i < mal; ++i) {
    Update u(dim);
    for (auto& x : u) {
      x = offset + static_cast<float>(rng.normal(0.0, 0.1));
    }
    updates.push_back(std::move(u));
  }
  return updates;
}

TEST(DncRule, FiltersSpectralOutliers) {
  DncOptions options;
  options.num_byzantine = 2;
  Dnc dnc(options);
  const auto updates = cluster_plus_outliers(8, 2, 64, 5.0f, 1);
  const auto result = dnc.aggregate(updates, unit_weights(10));
  for (const auto idx : result.selected) {
    EXPECT_LT(idx, 8u) << "outlier survived DnC";
  }
  for (const float v : result.model) EXPECT_LT(std::abs(v), 1.0f);
  EXPECT_TRUE(dnc.selects_clients());
  EXPECT_EQ(dnc.name(), "DnC");
}

TEST(DncRule, KeepsExpectedCountPerIteration) {
  DncOptions options;
  options.num_byzantine = 2;
  options.iterations = 1;
  options.filter_fraction = 1.0;
  Dnc dnc(options);
  const auto updates = cluster_plus_outliers(8, 2, 32, 3.0f, 2);
  const auto result = dnc.aggregate(updates, unit_weights(10));
  EXPECT_EQ(result.selected.size(), 8u);
}

TEST(DncRule, MultipleIterationsIntersect) {
  DncOptions options;
  options.num_byzantine = 1;
  options.iterations = 4;
  Dnc dnc(options);
  const auto updates = cluster_plus_outliers(9, 1, 48, 10.0f, 3);
  const auto result = dnc.aggregate(updates, unit_weights(10));
  // At most 9 survive, outlier never does; intersection can remove more.
  EXPECT_LE(result.selected.size(), 9u);
  for (const auto idx : result.selected) EXPECT_LT(idx, 9u);
}

TEST(DncRule, SubsamplingStillCatchesOutliers) {
  DncOptions options;
  options.num_byzantine = 2;
  options.subsample_dim = 16;  // far fewer than dim
  Dnc dnc(options);
  const auto updates = cluster_plus_outliers(8, 2, 256, 4.0f, 4);
  const auto result = dnc.aggregate(updates, unit_weights(10));
  for (const auto idx : result.selected) EXPECT_LT(idx, 8u);
}

TEST(DncRule, IdenticalUpdatesDegenerateGracefully) {
  DncOptions options;
  options.num_byzantine = 2;
  Dnc dnc(options);
  const Update u{1.0f, -2.0f, 0.5f};
  const std::vector<Update> updates(8, u);
  const auto result = dnc.aggregate(updates, unit_weights(8));
  ASSERT_FALSE(result.selected.empty());
  for (std::size_t i = 0; i < u.size(); ++i) {
    EXPECT_NEAR(result.model[i], u[i], 1e-5);
  }
}

TEST(DncRule, FactoryConstructs) {
  const auto agg = make_aggregator("dnc", {.num_byzantine = 2});
  ASSERT_NE(agg, nullptr);
  EXPECT_EQ(agg->name(), "DnC");
}

// Regression: iterations must score and discard over the *currently
// accepted* set. Scoring all n rows every iteration lets one extreme
// outlier absorb every iteration's filter budget — it is re-discarded
// again and again while a milder outlier sails through.
TEST(DncRule, FilterBudgetTargetsSurvivorsNotRejectedRows) {
  DncOptions options;
  options.num_byzantine = 1;   // discard 1 per iteration
  options.filter_fraction = 1.0;
  options.iterations = 3;
  Dnc dnc(options);

  // 8 benign at the origin, a mild outlier (index 8) and an extreme one
  // (index 9). The extreme row dominates the spectral direction of the
  // full set in every iteration; only survivor-set scoring ever gets the
  // filter budget onto the mild outlier.
  auto updates = cluster_plus_outliers(8, 1, 32, 2.0f, 11);
  Update extreme(32);
  util::Rng rng(12);
  for (auto& x : extreme) {
    x = 100.0f + static_cast<float>(rng.normal(0.0, 0.1));
  }
  updates.push_back(std::move(extreme));

  const auto result = dnc.aggregate(updates, unit_weights(10));
  // Iteration 1 discards the extreme row, iteration 2 the mild outlier,
  // iteration 3 one benign row: 7 survivors, neither outlier among them.
  EXPECT_EQ(result.selected.size(), 7u);
  for (const auto idx : result.selected) {
    EXPECT_LT(idx, 8u) << "outlier " << idx << " absorbed no filter budget";
  }
}

// Regression: when tiny rounds filter everything, the fallback promises
// the single lowest-score update of the last iteration — not
// unconditionally index 0, which here is the extreme outlier itself.
TEST(DncRule, EmptySelectionFallsBackToLowestScoreUpdate) {
  DncOptions options;
  options.num_byzantine = 3;   // discard 3 of n=4 per iteration
  options.filter_fraction = 1.0;
  options.iterations = 6;
  options.subsample_dim = 16;  // coords vary per iteration
  Dnc dnc(options);

  util::Rng rng(13);
  std::vector<Update> updates;
  Update outlier(256);
  for (auto& x : outlier) {
    x = 50.0f + static_cast<float>(rng.normal(0.0, 0.1));
  }
  updates.push_back(std::move(outlier));  // index 0
  for (std::size_t i = 0; i < 3; ++i) {
    Update u(256);
    for (auto& x : u) x = static_cast<float>(rng.normal(0.0, 0.1));
    updates.push_back(std::move(u));
  }

  // Iteration 1 discards the outlier plus two benign rows; iteration 2
  // empties the survivor set, so the fallback must return the last scored
  // candidate set's lowest-score update — a benign index, never
  // unconditionally index 0, which is the extreme outlier itself. (The
  // unfixed rule re-scores all four rows with fresh coordinate subsets
  // each iteration; the benign argmin drifts with the subset, the kill
  // sets' union empties the selection, and a blind `push_back(0)` hands
  // the round to the outlier.)
  const auto result = dnc.aggregate(updates, unit_weights(4));
  ASSERT_EQ(result.selected.size(), 1u);
  EXPECT_NE(result.selected.front(), 0u)
      << "fallback handed the round to the extreme outlier";
  for (const float v : result.model) EXPECT_LT(std::abs(v), 1.0f);
}

}  // namespace
}  // namespace zka::defense

namespace zka::attack {
namespace {

TEST(FangKrum, FoolsKrumOnClusteredBenignUpdates) {
  util::Rng rng(5);
  const std::size_t dim = 32;
  std::vector<float> global(dim);
  for (auto& x : global) x = static_cast<float>(rng.normal(0.0, 0.3));
  std::vector<Update> benign(8, Update(dim));
  for (auto& u : benign) {
    for (std::size_t i = 0; i < dim; ++i) {
      u[i] = global[i] + 0.05f + static_cast<float>(rng.normal(0.0, 0.05));
    }
  }
  AttackContext ctx;
  ctx.global_model = global;
  ctx.prev_global_model = global;
  ctx.benign_updates = &benign;
  ctx.num_selected = 10;
  ctx.num_malicious_selected = 2;

  FangKrumAttack attack(2);
  const Update crafted = attack.craft(ctx);
  ASSERT_EQ(crafted.size(), dim);
  EXPECT_GT(attack.last_lambda(), 0.0);

  // Verify the attacker's simulation: Krum over {crafted x2, benign...}
  // picks the crafted update.
  defense::MultiKrum krum(2, 1);
  std::vector<Update> pool{crafted, crafted};
  pool.insert(pool.end(), benign.begin(), benign.end());
  const auto selected = krum.select(pool);
  ASSERT_EQ(selected.size(), 1u);
  EXPECT_LT(selected.front(), 2u);
}

TEST(FangKrum, PushesOppositeToConsensusDirection) {
  util::Rng rng(6);
  const std::size_t dim = 16;
  std::vector<float> global(dim, 0.0f);
  std::vector<Update> benign(6, Update(dim));
  for (auto& u : benign) {
    for (auto& x : u) x = 0.1f + static_cast<float>(rng.normal(0.0, 0.01));
  }
  AttackContext ctx;
  ctx.global_model = global;
  ctx.prev_global_model = global;
  ctx.benign_updates = &benign;
  ctx.num_malicious_selected = 1;
  FangKrumAttack attack(1);
  const Update crafted = attack.craft(ctx);
  // Benign direction is +; crafted must sit at or below the global model.
  for (const float v : crafted) EXPECT_LE(v, 0.0f);
}

TEST(FangKrum, RequiresBenignUpdates) {
  FangKrumAttack attack(2);
  EXPECT_TRUE(attack.needs_benign_updates());
  EXPECT_EQ(attack.name(), "Fang-Krum");
}

}  // namespace
}  // namespace zka::attack
