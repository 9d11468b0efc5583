#include "fl/experiment.h"

#include <gtest/gtest.h>

#include <cmath>

namespace zka::fl {
namespace {

SimulationConfig tiny_config() {
  SimulationConfig config;
  config.num_clients = 15;
  config.clients_per_round = 5;
  config.rounds = 4;
  config.train_size = 200;
  config.test_size = 80;
  config.malicious_fraction = 0.2;
  config.seed = 5;
  return config;
}

core::ZkaOptions tiny_zka() {
  core::ZkaOptions zka;
  zka.synthetic_size = 4;
  zka.synthesis_epochs = 2;
  zka.latent_dim = 8;
  return zka;
}

TEST(AttackKinds, NamesRoundTrip) {
  // The table lists every enumerator once, in enum order.
  ASSERT_EQ(attack_kinds().size(),
            static_cast<std::size_t>(AttackKind::kFangKrum) + 1);
  for (std::size_t i = 0; i < attack_kinds().size(); ++i) {
    const AttackKindNames& entry = attack_kinds()[i];
    EXPECT_EQ(static_cast<std::size_t>(entry.kind), i) << entry.cli_name;
    EXPECT_EQ(parse_attack_kind(entry.cli_name), entry.kind) << entry.cli_name;
    EXPECT_STREQ(attack_kind_name(entry.kind), entry.display_name);
    EXPECT_FALSE(std::string(entry.display_name).empty());
  }
  EXPECT_THROW(parse_attack_kind("unknown"), std::invalid_argument);
}

TEST(MakeAttack, ConstructsEveryKind) {
  Simulation sim(tiny_config());
  for (const AttackKindNames& entry : attack_kinds()) {
    const auto attack = make_attack(entry.kind, sim, tiny_zka(), 1);
    if (entry.kind == AttackKind::kNone) {
      EXPECT_EQ(attack, nullptr);
      continue;
    }
    ASSERT_NE(attack, nullptr) << entry.display_name;
    // The display names cannot drift from the classes' own names.
    EXPECT_EQ(attack->name(), attack_kind_name(entry.kind));
  }
}

TEST(MakeAttack, StaticVariantsDisableTraining) {
  Simulation sim(tiny_config());
  const auto s = make_attack(AttackKind::kZkaRStatic, sim, tiny_zka(), 2);
  EXPECT_EQ(s->name(), "ZKA-R-static");
  const auto g = make_attack(AttackKind::kZkaGStatic, sim, tiny_zka(), 2);
  EXPECT_EQ(g->name(), "ZKA-G-static");
}

TEST(BaselineCacheTest, CachesAcrossDefenses) {
  BaselineCache cache;
  SimulationConfig config = tiny_config();
  config.defense = "mkrum";
  const double a = cache.attack_free_accuracy(config);
  config.defense = "bulyan";  // irrelevant to the baseline key
  const double b = cache.attack_free_accuracy(config);
  EXPECT_DOUBLE_EQ(a, b);
  EXPECT_GT(a, 0.1);
}

TEST(BaselineCacheTest, DifferentSeedsGetDifferentEntries) {
  BaselineCache cache;
  SimulationConfig config = tiny_config();
  const double a = cache.attack_free_accuracy(config);
  config.seed = 77;
  const double b = cache.attack_free_accuracy(config);
  EXPECT_NE(a, b);
}

TEST(BaselineCacheTest, TestSizeIsPartOfTheKey) {
  // Regression: the cache key used to omit test_size, so two configs that
  // differ only in their evaluation split aliased to one entry and the
  // second caller was served the first caller's accuracy.
  BaselineCache cache;
  SimulationConfig config = tiny_config();
  cache.attack_free_accuracy(config);  // prime the cache with test_size = 80
  config.test_size = 40;
  const double shared = cache.attack_free_accuracy(config);
  BaselineCache fresh;
  const double expected = fresh.attack_free_accuracy(config);
  EXPECT_DOUBLE_EQ(shared, expected);
}

TEST(BaselineCacheTest, KeyIsBitExactForFloatFields) {
  // Regression: the key used to format beta / learning_rate with printf
  // precision, so configs whose floats differed below the printed digits
  // collided and one silently reused the other's baseline. The key must
  // distinguish any bitwise-different float.
  SimulationConfig config = tiny_config();
  SimulationConfig nudged = config;
  nudged.beta = std::nextafter(config.beta, 1.0);
  EXPECT_NE(BaselineCache::key(config), BaselineCache::key(nudged));

  nudged = config;
  nudged.client.learning_rate =
      std::nextafter(config.client.learning_rate, 1.0f);
  EXPECT_NE(BaselineCache::key(config), BaselineCache::key(nudged));

  // And identical configs must still agree, including negative-zero vs
  // zero (bitwise distinct, so distinct keys — exactness over aliasing).
  EXPECT_EQ(BaselineCache::key(config), BaselineCache::key(config));
  SimulationConfig zero = config;
  zero.beta = 0.0;
  SimulationConfig neg_zero = config;
  neg_zero.beta = -0.0;
  EXPECT_NE(BaselineCache::key(zero), BaselineCache::key(neg_zero));
}

TEST(RunExperiment, RejectsDisabledEvaluation) {
  // eval_every = 0 disables evaluation, so every accuracy metric the
  // experiment would report is NaN; run_experiment must refuse up front.
  BaselineCache cache;
  SimulationConfig config = tiny_config();
  config.eval_every = 0;
  EXPECT_THROW(run_experiment(config, AttackKind::kRandomWeights, tiny_zka(),
                              1, cache),
               std::invalid_argument);
}

TEST(RunExperiment, ProducesSaneOutcome) {
  BaselineCache cache;
  SimulationConfig config = tiny_config();
  config.defense = "mkrum";
  const ExperimentOutcome outcome =
      run_experiment(config, AttackKind::kRandomWeights, tiny_zka(), 2,
                     cache);
  EXPECT_EQ(outcome.runs, 2);
  EXPECT_GT(outcome.acc_natk, 0.0);
  EXPECT_GE(outcome.max_acc, 0.0);
  EXPECT_LE(outcome.max_acc, 100.0);
  EXPECT_FALSE(std::isnan(outcome.asr));
  EXPECT_FALSE(std::isnan(outcome.dpr));  // mKrum selects
  EXPECT_GE(outcome.asr_stddev, 0.0);
}

TEST(RunExperiment, DprNanForStatisticDefense) {
  BaselineCache cache;
  SimulationConfig config = tiny_config();
  config.defense = "median";
  const ExperimentOutcome outcome =
      run_experiment(config, AttackKind::kRandomWeights, tiny_zka(), 1,
                     cache);
  EXPECT_TRUE(std::isnan(outcome.dpr));
}

TEST(RunExperiment, RejectsZeroRuns) {
  BaselineCache cache;
  EXPECT_THROW(run_experiment(tiny_config(), AttackKind::kLie, tiny_zka(), 0,
                              cache),
               std::invalid_argument);
}

}  // namespace
}  // namespace zka::fl
