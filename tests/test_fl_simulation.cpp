#include "fl/simulation.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <ostream>
#include <span>
#include <string>
#include <vector>

#include "attack/random_weights.h"
#include "data/synthetic.h"
#include "defense/fedavg.h"
#include "defense/fltrust.h"
#include "fl/metrics.h"
#include "nn/module.h"
#include "serially.h"

namespace zka::fl {
namespace {

SimulationConfig tiny_config() {
  SimulationConfig config;
  config.task = models::Task::kFashion;
  config.num_clients = 20;
  config.clients_per_round = 5;
  config.rounds = 6;
  config.train_size = 300;
  config.test_size = 120;
  config.seed = 3;
  return config;
}

TEST(Simulation, AttackFreeFedAvgLearns) {
  SimulationConfig config = tiny_config();
  config.rounds = 10;
  config.malicious_fraction = 0.0;
  Simulation sim(config);
  const auto result = sim.run(nullptr);
  ASSERT_EQ(result.rounds.size(), 10u);
  EXPECT_GT(result.max_accuracy, 0.5);
  EXPECT_GT(result.final_accuracy, result.rounds.front().accuracy);
  EXPECT_FALSE(result.defense_selects);
  EXPECT_TRUE(std::isnan(result.dpr()));
}

TEST(Simulation, ReproducibleGivenSeed) {
  const SimulationConfig config = tiny_config();
  Simulation a(config);
  Simulation b(config);
  const auto ra = a.run(nullptr);
  const auto rb = b.run(nullptr);
  ASSERT_EQ(ra.rounds.size(), rb.rounds.size());
  for (std::size_t i = 0; i < ra.rounds.size(); ++i) {
    EXPECT_DOUBLE_EQ(ra.rounds[i].accuracy, rb.rounds[i].accuracy);
  }
}

TEST(Simulation, DifferentSeedsDiffer) {
  SimulationConfig config = tiny_config();
  Simulation a(config);
  config.seed = 4;
  Simulation b(config);
  EXPECT_NE(a.run(nullptr).final_accuracy, b.run(nullptr).final_accuracy);
}

TEST(Simulation, SerialAndParallelClientsAgree) {
  const SimulationConfig config = tiny_config();
  Simulation par(config);
  Simulation ser(config);
  EXPECT_DOUBLE_EQ(par.run(nullptr).final_accuracy,
                   test::serially([&] { return ser.run(nullptr); })
                       .final_accuracy);
}

TEST(Simulation, SelectionBookkeepingConsistent) {
  SimulationConfig config = tiny_config();
  config.defense = "mkrum";
  config.malicious_fraction = 0.2;
  Simulation sim(config);
  attack::RandomWeightsAttack attack(0.5f, 9);
  const auto result = sim.run(&attack);
  EXPECT_TRUE(result.defense_selects);
  for (const RoundRecord& r : result.rounds) {
    EXPECT_LE(r.malicious_passed, r.malicious_selected);
    EXPECT_LE(r.benign_passed, r.benign_selected);
    EXPECT_EQ(r.malicious_selected + r.benign_selected,
              config.clients_per_round);
  }
}

TEST(Simulation, RandomWeightsRarelyPassMKrum) {
  // Sec. IV-A: random model weights almost never survive mKrum. Use the
  // paper's round size K = 10 — with fewer participants Krum's neighbor
  // count collapses and identical Sybil updates can vouch for each other.
  SimulationConfig config = tiny_config();
  config.rounds = 12;
  config.clients_per_round = 10;
  config.defense = "mkrum";
  config.malicious_fraction = 0.2;
  Simulation sim(config);
  attack::RandomWeightsAttack attack(0.5f, 10);
  const auto result = sim.run(&attack);
  const double dpr = result.dpr();
  ASSERT_FALSE(std::isnan(dpr));
  EXPECT_LT(dpr, 30.0);
  // Benign updates must survive far more often than random weights.
  EXPECT_GT(result.benign_pass_rate(), dpr);
}

TEST(Simulation, StatisticDefensesReportNoSelection) {
  for (const char* defense : {"median", "trmean"}) {
    SimulationConfig config = tiny_config();
    config.defense = defense;
    config.malicious_fraction = 0.2;
    Simulation sim(config);
    attack::RandomWeightsAttack attack(0.5f, 11);
    const auto result = sim.run(&attack);
    EXPECT_FALSE(result.defense_selects) << defense;
    EXPECT_TRUE(std::isnan(result.dpr())) << defense;
  }
}

TEST(Simulation, RoundCallbackFiresEveryRound) {
  SimulationConfig config = tiny_config();
  Simulation sim(config);
  int calls = 0;
  sim.set_round_callback([&](const RoundRecord& r) {
    EXPECT_EQ(r.round, calls);
    ++calls;
  });
  sim.run(nullptr);
  EXPECT_EQ(calls, 6);
}

TEST(Simulation, MaliciousDataPoolsAttackerShards) {
  SimulationConfig config = tiny_config();
  config.malicious_fraction = 0.2;  // 4 of 20 clients
  Simulation sim(config);
  EXPECT_EQ(sim.num_malicious(), 4);
  const data::Dataset pooled = sim.malicious_data();
  EXPECT_GT(pooled.size(), 0);
  EXPECT_LT(pooled.size(), config.train_size);
}

TEST(Simulation, ConfigValidation) {
  SimulationConfig config = tiny_config();
  config.malicious_fraction = 0.7;  // beyond the threat model's 50%
  EXPECT_THROW(Simulation{config}, std::invalid_argument);
  config = tiny_config();
  config.clients_per_round = 0;
  EXPECT_THROW(Simulation{config}, std::invalid_argument);
  config = tiny_config();
  config.clients_per_round = 21;
  EXPECT_THROW(Simulation{config}, std::invalid_argument);
  config = tiny_config();
  config.defense = "bogus";
  EXPECT_THROW(Simulation{config}, std::invalid_argument);
}

TEST(Simulation, ZeroAttackerRunIsCleanBaseline) {
  // Regression: an attack whose rounded attacker count is zero used to
  // throw, crashing every sub-1% fraction sweep at small populations. Such
  // a run now degrades to a clean baseline, bitwise-equal to attack=null.
  SimulationConfig config = tiny_config();
  config.malicious_fraction = 0.02;  // floor(0.02 * 20) == 0
  Simulation sim(config);
  EXPECT_EQ(sim.num_malicious(), 0);
  attack::RandomWeightsAttack attack(0.5f, 12);
  const auto attacked = sim.run(&attack);
  for (const auto& r : attacked.rounds) {
    EXPECT_EQ(r.malicious_selected, 0);
  }
  Simulation clean(config);
  const auto baseline = clean.run(nullptr);
  EXPECT_EQ(attacked.final_model, baseline.final_model);
}

TEST(Simulation, EvalEveryReducesEvaluations) {
  SimulationConfig config = tiny_config();
  config.eval_every = 3;
  Simulation sim(config);
  const auto result = sim.run(nullptr);
  int evaluated = 0;
  for (const auto& r : result.rounds) {
    if (!std::isnan(r.accuracy)) ++evaluated;
  }
  EXPECT_LT(evaluated, 6);
  EXPECT_GE(evaluated, 2);  // first matching round and final round
}

TEST(Simulation, EvalDisabledLeavesAccuracyNaN) {
  // Regression: with evaluation off (eval_every = 0, as bench_fig6 runs),
  // the accuracy fields used to silently read 0.0; they must be NaN so a
  // never-evaluated run cannot masquerade as a 0%-accuracy result.
  SimulationConfig config = tiny_config();
  config.eval_every = 0;
  Simulation sim(config);
  const auto result = sim.run(nullptr);
  EXPECT_TRUE(std::isnan(result.max_accuracy));
  EXPECT_TRUE(std::isnan(result.final_accuracy));
  for (const auto& r : result.rounds) {
    EXPECT_TRUE(std::isnan(r.accuracy));
  }
}

TEST(Simulation, MaxAccuracyIsMaxOverEvaluatedRounds) {
  // NaN-aware max: skipped rounds (accuracy = NaN) must not poison the
  // running maximum, and the first evaluated round must seed it.
  SimulationConfig config = tiny_config();
  config.eval_every = 3;
  Simulation sim(config);
  const auto result = sim.run(nullptr);
  double expected = std::nan("");
  for (const auto& r : result.rounds) {
    if (std::isnan(r.accuracy)) continue;
    expected = std::isnan(expected) ? r.accuracy
                                    : std::max(expected, r.accuracy);
  }
  ASSERT_FALSE(std::isnan(expected));
  EXPECT_DOUBLE_EQ(result.max_accuracy, expected);
}

TEST(Simulation, RoundCallbackRecordsMatchFinalResult) {
  // The callback must fire once per round, in order, with the same record
  // the simulation later returns (it runs after the round's bookkeeping —
  // consumers like bench_fig6 depend on that ordering).
  SimulationConfig config = tiny_config();
  config.eval_every = 2;
  Simulation sim(config);
  std::vector<RoundRecord> seen;
  sim.set_round_callback(
      [&](const RoundRecord& r) { seen.push_back(r); });
  const auto result = sim.run(nullptr);
  ASSERT_EQ(seen.size(), result.rounds.size());
  for (std::size_t i = 0; i < seen.size(); ++i) {
    EXPECT_EQ(seen[i].round, result.rounds[i].round);
    EXPECT_EQ(seen[i].malicious_selected, result.rounds[i].malicious_selected);
    EXPECT_EQ(seen[i].malicious_passed, result.rounds[i].malicious_passed);
    EXPECT_EQ(seen[i].benign_selected, result.rounds[i].benign_selected);
    EXPECT_EQ(seen[i].benign_passed, result.rounds[i].benign_passed);
    if (std::isnan(seen[i].accuracy)) {
      EXPECT_TRUE(std::isnan(result.rounds[i].accuracy));
    } else {
      EXPECT_DOUBLE_EQ(seen[i].accuracy, result.rounds[i].accuracy);
    }
  }
}

TEST(Simulation, CustomDefenseFactoryOverridesName) {
  SimulationConfig config = tiny_config();
  config.defense = "bogus-name-ignored";
  config.custom_defense = [] {
    return defense::make_aggregator("median", {.num_byzantine = 0});
  };
  Simulation sim(config);
  EXPECT_GT(sim.run(nullptr).max_accuracy, 0.3);
}

TEST(Simulation, NullCustomDefenseRejected) {
  SimulationConfig config = tiny_config();
  config.custom_defense = [] {
    return std::unique_ptr<defense::Aggregator>();
  };
  EXPECT_THROW(Simulation{config}, std::invalid_argument);
}

TEST(Simulation, FlTrustRunsAsCustomDefense) {
  // The attack keeps the update it crafted last; FLTrust then sorts the
  // trust it gave each update into that update's and the benign ones'.
  struct RecordingAttack : attack::RandomWeightsAttack {
    using RandomWeightsAttack::RandomWeightsAttack;
    attack::Update craft(const attack::AttackContext& ctx) override {
      crafted = RandomWeightsAttack::craft(ctx);
      return crafted;
    }
    attack::Update crafted;
  };
  struct Trust {
    std::vector<double> malicious;
    std::vector<double> benign;
  };
  struct RecordingFlTrust : defense::FlTrust {
    RecordingFlTrust(const SimulationConfig& config,
                     const RecordingAttack& attack, Trust& trust)
        : FlTrust(data::make_synthetic_dataset(config.task, 48, 777),
                  models::task_model_factory(config.task),
                  data::LocalSgdOptions{}, 9),
          attack_(&attack), trust_(&trust) {}
    defense::AggregationResult do_aggregate(
        std::span<const defense::UpdateView> updates,
        std::span<const std::int64_t> weights) override {
      defense::AggregationResult result = FlTrust::do_aggregate(updates,
                                                                weights);
      for (std::size_t k = 0; k < updates.size(); ++k) {
        const bool crafted = std::ranges::equal(updates[k], attack_->crafted);
        (crafted ? trust_->malicious : trust_->benign)
            .push_back(last_trust_scores()[k]);
      }
      return result;
    }
    const RecordingAttack* attack_;
    Trust* trust_;
  };

  SimulationConfig config = tiny_config();
  config.malicious_fraction = 0.2;
  RecordingAttack attack(0.5f, 13);
  Trust trust;
  config.custom_defense = [&config, &attack, &trust] {
    return std::make_unique<RecordingFlTrust>(config, attack, trust);
  };
  Simulation sim(config);
  const auto result = sim.run(&attack);
  EXPECT_TRUE(result.defense_selects);
  // Random-weight updates are uncorrelated with the server direction, so
  // FLTrust should reject nearly all of them, and give the ones it keeps
  // almost no trust.
  EXPECT_LT(result.dpr(), 60.0);
  ASSERT_FALSE(trust.malicious.empty());
  ASSERT_FALSE(trust.benign.empty());
  std::ranges::sort(trust.benign);
  const double benign_median = trust.benign[trust.benign.size() / 2];
  EXPECT_GT(benign_median, 0.2);
  for (const double score : trust.malicious) EXPECT_LT(score, 0.1);
  EXPECT_GT(result.max_accuracy, 0.2);
}

TEST(Simulation, IidPartitionWhenBetaNonPositive) {
  SimulationConfig config = tiny_config();
  config.beta = 0.0;
  Simulation sim(config);
  EXPECT_GT(sim.run(nullptr).max_accuracy, 0.3);
}

// FedAvg wrapper that records the weight vector of every round, for
// asserting the server-side weight-assembly semantics. Every round opens
// with begin_stream, which carries the round's weights. Ingress
// sanitization is disabled so the capture sees the round loop's raw
// client-reported weights, not the clamped ones.
class WeightCaptureFedAvg : public defense::FedAvg {
 public:
  explicit WeightCaptureFedAvg(std::vector<std::vector<std::int64_t>>* log)
      : log_(log) {
    set_sanitize({.enabled = false});
  }
  void do_begin_stream(std::size_t dim,
                       std::span<const std::int64_t> weights) override {
    log_->emplace_back(weights.begin(), weights.end());
    defense::FedAvg::do_begin_stream(dim, weights);
  }

 private:
  std::vector<std::vector<std::int64_t>>* log_;
};

TEST(Simulation, EmptyShardClientsReportZeroWeight) {
  // Regression: clients with empty shards used to be silently assigned
  // weight max(num_samples, 1) — a fabricated sample the client never had.
  // With 10 training samples IID-split over 20 clients, half the shards are
  // empty; their reported weight must be 0, never floored up to 1.
  SimulationConfig config = tiny_config();
  config.beta = 0.0;
  config.train_size = 10;
  config.rounds = 4;
  std::vector<std::vector<std::int64_t>> rounds_weights;
  config.custom_defense = [&rounds_weights] {
    return std::make_unique<WeightCaptureFedAvg>(&rounds_weights);
  };
  Simulation sim(config);
  sim.run(nullptr);
  ASSERT_EQ(rounds_weights.size(), 4u);
  std::int64_t zeros = 0;
  for (const auto& weights : rounds_weights) {
    ASSERT_EQ(weights.size(), 5u);
    for (const std::int64_t w : weights) {
      EXPECT_TRUE(w == 0 || w == 1) << w;
      if (w == 0) ++zeros;
    }
  }
  EXPECT_GT(zeros, 0);  // this seed samples empty-shard clients
}

TEST(Simulation, MaliciousWeightIsAttackerReported) {
  // Sample counts are client-reported: the round loop must submit whatever
  // Attack::reported_weight returns for each sybil, not a weight derived
  // from the shards the adversary's clients happen to own.
  class SentinelWeightAttack : public attack::RandomWeightsAttack {
   public:
    using RandomWeightsAttack::RandomWeightsAttack;
    std::int64_t reported_weight(
        const attack::AttackContext& ctx) const override {
      EXPECT_GE(ctx.benign_median_weight, 0);
      return 777000;  // implausible as a real shard size
    }
  };
  SimulationConfig config = tiny_config();
  config.malicious_fraction = 0.2;  // 4 of 20 clients
  std::vector<std::vector<std::int64_t>> rounds_weights;
  config.custom_defense = [&rounds_weights] {
    return std::make_unique<WeightCaptureFedAvg>(&rounds_weights);
  };
  Simulation sim(config);
  SentinelWeightAttack attack(0.5f, 12);
  const auto result = sim.run(&attack);
  ASSERT_EQ(rounds_weights.size(), result.rounds.size());
  for (std::size_t r = 0; r < rounds_weights.size(); ++r) {
    std::int64_t sentinels = 0;
    for (const std::int64_t w : rounds_weights[r]) {
      if (w == 777000) ++sentinels;
    }
    EXPECT_EQ(sentinels, result.rounds[r].malicious_selected);
  }
}

// A forwarding decorator shaped like the benchmark's timing wrapper: it
// overrides every Aggregator virtual and forwards each hook to the inner
// rule's public entry point, with its own ingress off so the inner rule is
// the only sanitizer. Any hook it failed to forward (or forwarded to the
// wrong entry point) shows up as a result that differs from the bare rule.
class ForwardingAggregator final : public defense::Aggregator {
 public:
  explicit ForwardingAggregator(std::unique_ptr<defense::Aggregator> inner)
      : inner_(std::move(inner)) {
    set_sanitize({.enabled = false});
  }

  void begin_round(std::span<const float> global_model,
                   std::int64_t round) override {
    inner_->begin_round(global_model, round);
  }
  bool selects_clients() const noexcept override {
    return inner_->selects_clients();
  }
  std::string name() const override { return inner_->name(); }
  bool supports_streaming() const noexcept override {
    return inner_->supports_streaming();
  }
  bool streaming_exact() const noexcept override {
    return inner_->streaming_exact();
  }
  std::span<const std::size_t> stream_replay_request() override {
    return inner_->stream_replay_request();
  }
  defense::AggregationResult finish_stream() override {
    return inner_->finish_stream();
  }

 protected:
  defense::AggregationResult do_aggregate(
      std::span<const defense::UpdateView> updates,
      std::span<const std::int64_t> weights) override {
    return inner_->aggregate(updates, weights);
  }
  void do_begin_stream(std::size_t dim,
                       std::span<const std::int64_t> weights) override {
    inner_->begin_stream(dim, weights);
  }
  void do_stream_update(defense::UpdateView update) override {
    inner_->stream_update(update);
  }
  void do_stream_replay(std::size_t index,
                        defense::UpdateView update) override {
    inner_->stream_replay(index, update);
  }

 private:
  std::unique_ptr<defense::Aggregator> inner_;
};

struct DecoratorCase {
  const char* defense;
  std::size_t sketch_dim;
  std::size_t budget_updates;  // memory budget in updates; 0 = unbounded
};

void PrintTo(const DecoratorCase& c, std::ostream* os) {
  *os << c.defense << " sketch_dim=" << c.sketch_dim
      << " budget_updates=" << c.budget_updates;
}

class ForwardingDecoratorParity
    : public ::testing::TestWithParam<DecoratorCase> {};

TEST_P(ForwardingDecoratorParity, SimulationBitwiseEqualsBareRule) {
  const DecoratorCase c = GetParam();
  SimulationConfig config = tiny_config();
  config.clients_per_round = 10;  // n >= 8 lets the sketched path engage
  config.rounds = 3;
  config.malicious_fraction = 0.2;
  config.defense = c.defense;
  config.sketch_dim = c.sketch_dim;
  const std::size_t update_bytes =
      nn::get_flat_params(*models::task_model_factory(config.task)(1)).size() *
      sizeof(float);
  config.memory_budget_bytes = c.budget_updates * update_bytes;

  attack::RandomWeightsAttack bare_attack(0.5f, 5);
  const SimulationResult bare = Simulation(config).run(&bare_attack);

  defense::AggregatorOptions options;  // what Simulation passes the factory
  options.num_byzantine = config.defense_f;
  options.sketch_dim = config.sketch_dim;
  options.memory_budget_bytes = config.memory_budget_bytes;
  config.custom_defense = [options, name = config.defense] {
    return std::make_unique<ForwardingAggregator>(
        defense::make_aggregator(name, options));
  };
  attack::RandomWeightsAttack decorated_attack(0.5f, 5);
  const SimulationResult decorated =
      Simulation(config).run(&decorated_attack);

  ASSERT_EQ(bare.final_model.size(), decorated.final_model.size());
  EXPECT_EQ(0, std::memcmp(bare.final_model.data(),
                           decorated.final_model.data(),
                           bare.final_model.size() * sizeof(float)));
  EXPECT_EQ(bare.peak_update_bytes, decorated.peak_update_bytes);
  ASSERT_EQ(bare.rounds.size(), decorated.rounds.size());
  for (std::size_t r = 0; r < bare.rounds.size(); ++r) {
    EXPECT_EQ(bare.rounds[r].malicious_selected,
              decorated.rounds[r].malicious_selected);
    EXPECT_EQ(bare.rounds[r].malicious_passed,
              decorated.rounds[r].malicious_passed);
    EXPECT_EQ(bare.rounds[r].benign_selected,
              decorated.rounds[r].benign_selected);
    EXPECT_EQ(bare.rounds[r].benign_passed, decorated.rounds[r].benign_passed);
    EXPECT_EQ(0, std::memcmp(&bare.rounds[r].accuracy,
                             &decorated.rounds[r].accuracy, sizeof(double)));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Rules, ForwardingDecoratorParity,
    ::testing::Values(DecoratorCase{"fedavg", 0, 0},
                      DecoratorCase{"fedavg", 0, 4},
                      DecoratorCase{"median", 0, 0},
                      DecoratorCase{"median", 0, 4},
                      DecoratorCase{"mkrum", 0, 0},
                      DecoratorCase{"mkrum", 64, 0},
                      DecoratorCase{"mkrum", 64, 4},
                      DecoratorCase{"bulyan", 0, 0}),
    [](const ::testing::TestParamInfo<DecoratorCase>& info) {
      const DecoratorCase& c = info.param;
      return std::string(c.defense) + (c.sketch_dim > 0 ? "_sketch" : "") +
             (c.budget_updates > 0 ? "_budget" : "");
    });

TEST(Simulation, DefaultReportedWeightIsBenignMedian) {
  attack::RandomWeightsAttack attack(0.5f, 12);
  attack::AttackContext ctx;
  ctx.benign_median_weight = 7;
  EXPECT_EQ(attack.reported_weight(ctx), 7);
}

}  // namespace
}  // namespace zka::fl
