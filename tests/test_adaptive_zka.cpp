// Adaptive stealth extension: online lambda control from inferred
// acceptance, still zero-knowledge.
#include "core/adaptive_zka.h"

#include <gtest/gtest.h>

#include "core/zka_g.h"
#include "core/zka_r.h"
#include "fl/experiment.h"
#include "util/stats.h"

namespace zka::core {
namespace {

ZkaOptions tiny_options() {
  ZkaOptions opts;
  opts.synthetic_size = 6;
  opts.synthesis_epochs = 2;
  opts.latent_dim = 8;
  opts.classifier.epochs = 2;
  opts.classifier.batch_size = 6;
  return opts;
}

attack::AttackContext context_for(const std::vector<float>& global,
                                  const std::vector<float>& prev) {
  // The classifier replicas every craft here borrows, as a simulation
  // lends its own.
  static data::ReplicaSet replicas(
      models::task_model_factory(models::Task::kFashion));
  attack::AttackContext ctx;
  ctx.replicas = &replicas;
  ctx.global_model = global;
  ctx.prev_global_model = prev;
  ctx.num_selected = 10;
  ctx.num_malicious_selected = 2;
  return ctx;
}

TEST(AdaptiveZka, NamesAndZeroKnowledge) {
  AdaptiveZkaAttack r(
      std::make_unique<ZkaRAttack>(models::Task::kFashion, tiny_options(), 1),
      {});
  AdaptiveZkaAttack g(
      std::make_unique<ZkaGAttack>(models::Task::kFashion, tiny_options(), 1),
      {});
  EXPECT_EQ(r.name(), "ZKA-R-adaptive");
  EXPECT_EQ(g.name(), "ZKA-G-adaptive");
  EXPECT_FALSE(r.needs_benign_updates());
}

TEST(AdaptiveZka, LambdaClampedToConfiguredRange) {
  ZkaOptions opts = tiny_options();
  opts.classifier.lambda = 1000.0;
  AdaptiveOptions adaptive;
  adaptive.lambda_max = 32.0;
  AdaptiveZkaAttack attack(
      std::make_unique<ZkaRAttack>(models::Task::kFashion, opts, 2), adaptive);
  EXPECT_DOUBLE_EQ(attack.current_lambda(), 32.0);
}

TEST(AdaptiveZka, EscalatesWhenGlobalIgnoresItsUpdate) {
  const auto factory = models::task_model_factory(models::Task::kFashion);
  std::vector<float> global = nn::get_flat_params(*factory(3));
  AdaptiveOptions adaptive;
  adaptive.escalation = 2.0;
  AdaptiveZkaAttack attack(
      std::make_unique<ZkaRAttack>(models::Task::kFashion, tiny_options(), 4),
      adaptive);
  const double lambda0 = attack.current_lambda();

  attack.craft(context_for(global, global));
  // Simulate a server that moved in an unrelated direction (rejected us).
  std::vector<float> next = global;
  util::Rng rng(9);
  for (auto& w : next) w += static_cast<float>(rng.normal(0.0, 0.01));
  attack.craft(context_for(next, global));
  EXPECT_EQ(attack.inferred_rejects(), 1);
  EXPECT_GT(attack.current_lambda(), lambda0);
}

TEST(AdaptiveZka, RelaxesWhenGlobalFollowsItsUpdate) {
  const auto factory = models::task_model_factory(models::Task::kFashion);
  std::vector<float> global = nn::get_flat_params(*factory(5));
  AdaptiveOptions adaptive;
  adaptive.lambda_min = 0.5;
  AdaptiveZkaAttack attack(
      std::make_unique<ZkaGAttack>(models::Task::kFashion, tiny_options(), 6),
      adaptive);
  const double lambda0 = attack.current_lambda();

  const auto update = attack.craft(context_for(global, global));
  // Simulate acceptance: the global moved exactly toward our update.
  std::vector<float> next(global.size());
  for (std::size_t i = 0; i < global.size(); ++i) {
    next[i] = global[i] + 0.3f * (update[i] - global[i]);
  }
  attack.craft(context_for(next, global));
  EXPECT_EQ(attack.inferred_accepts(), 1);
  EXPECT_LT(attack.current_lambda(), lambda0);
}

TEST(AdaptiveZka, RunsInsideSimulationGrid) {
  fl::SimulationConfig config;
  config.num_clients = 15;
  config.clients_per_round = 5;
  config.rounds = 4;
  config.train_size = 150;
  config.test_size = 60;
  config.malicious_fraction = 0.2;
  config.defense = "mkrum";
  config.defense_f = 1;
  config.seed = 31;
  for (const fl::AttackKind kind :
       {fl::AttackKind::kZkaRAdaptive, fl::AttackKind::kZkaGAdaptive}) {
    fl::Simulation sim(config);
    const auto attack = fl::make_attack(kind, sim, tiny_options(), 7);
    const auto result = sim.run(attack.get());
    EXPECT_EQ(result.rounds.size(), 4u) << fl::attack_kind_name(kind);
  }
}

TEST(AdaptiveZka, ParseAndNameRoundTrip) {
  EXPECT_EQ(fl::parse_attack_kind("zka-r-adaptive"),
            fl::AttackKind::kZkaRAdaptive);
  EXPECT_EQ(fl::parse_attack_kind("zka-g-adaptive"),
            fl::AttackKind::kZkaGAdaptive);
  EXPECT_STREQ(fl::attack_kind_name(fl::AttackKind::kZkaGAdaptive),
               "ZKA-G-adaptive");
}

}  // namespace
}  // namespace zka::core
