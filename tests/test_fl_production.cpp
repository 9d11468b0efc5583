// Production cross-device engine: lazy registry, O(k) sampling, streaming
// ingestion under a memory budget, and the bitwise-determinism contracts
// that hold the whole construction together. Registered at ZKA_THREADS
// 1/4/8 (tests/CMakeLists.txt) so the parallel legs are thread-count
// invariant, not just seed-stable.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <set>
#include <vector>

#include "attack/random_weights.h"
#include "data/partition.h"
#include "fl/registry.h"
#include "fl/simulation.h"
#include "nn/module.h"
#include "util/rng.h"

namespace zka::fl {
namespace {

SimulationConfig production_config() {
  SimulationConfig config;
  config.task = models::Task::kFashion;
  config.population = 500;
  config.clients_per_round = 12;
  config.samples_per_client = 16;
  config.malicious_fraction = 0.0;
  config.rounds = 3;
  config.train_size = 256;
  config.test_size = 96;
  config.seed = 7;
  return config;
}

void expect_same_result(const SimulationResult& a, const SimulationResult& b) {
  ASSERT_EQ(a.rounds.size(), b.rounds.size());
  for (std::size_t i = 0; i < a.rounds.size(); ++i) {
    EXPECT_EQ(a.rounds[i].malicious_selected, b.rounds[i].malicious_selected);
    EXPECT_EQ(a.rounds[i].benign_selected, b.rounds[i].benign_selected);
    if (std::isnan(a.rounds[i].accuracy)) {
      EXPECT_TRUE(std::isnan(b.rounds[i].accuracy));
    } else {
      EXPECT_DOUBLE_EQ(a.rounds[i].accuracy, b.rounds[i].accuracy);
    }
  }
  // Bitwise: float vectors compare exactly, no tolerance.
  EXPECT_EQ(a.final_model, b.final_model);
}

TEST(HashedShardSpec, DeterministicAndWithinBounds) {
  const data::HashedShardSpec spec(1000, 100000, 24, 42);
  EXPECT_EQ(spec.shard_size(), 24);
  const auto a = spec.shard(12345);
  const auto b = spec.shard(12345);
  EXPECT_EQ(a, b);
  ASSERT_EQ(a.size(), 24u);
  std::set<std::int64_t> seen(a.begin(), a.end());
  EXPECT_EQ(seen.size(), a.size());  // distinct indices
  for (const std::int64_t i : a) {
    EXPECT_GE(i, 0);
    EXPECT_LT(i, 1000);
  }
  EXPECT_NE(spec.shard(0), spec.shard(1));
  const data::HashedShardSpec other(1000, 100000, 24, 43);
  EXPECT_NE(other.shard(12345), a);  // seed changes every shard
}

TEST(HashedShardSpec, ShardSizeClampedToDataset) {
  const data::HashedShardSpec spec(10, 1000, 64, 1);
  EXPECT_EQ(spec.shard_size(), 10);
  EXPECT_EQ(spec.shard(3).size(), 10u);
}

TEST(ProductionSimulation, RunsAndLearnsAtSmallScale) {
  SimulationConfig config = production_config();
  config.rounds = 6;
  Simulation sim(config);
  EXPECT_EQ(sim.population(), 500);
  EXPECT_TRUE(sim.registry().lazy());
  EXPECT_THROW(sim.registry().shard(500), std::invalid_argument);
  EXPECT_THROW(sim.registry().shard(-1), std::invalid_argument);
  const auto result = sim.run(nullptr);
  ASSERT_EQ(result.rounds.size(), 6u);
  EXPECT_GT(result.max_accuracy, 0.3);
  EXPECT_GT(result.peak_update_bytes, 0u);
}

TEST(ProductionSimulation, ParallelAndSerialBitwiseEqual) {
  SimulationConfig config = production_config();
  config.parallel_clients = true;
  Simulation par(config);
  config.parallel_clients = false;
  Simulation ser(config);
  expect_same_result(par.run(nullptr), ser.run(nullptr));
}

TEST(ProductionSimulation, StreamingBitwiseEqualsBufferedAndBoundsMemory) {
  SimulationConfig config = production_config();
  config.malicious_fraction = 0.01;  // floor(0.01 * 500) = 5 sybils
  const std::size_t update_bytes = [&] {
    // One probe run to learn the model size (dim * sizeof(float)).
    SimulationConfig probe = production_config();
    probe.rounds = 1;
    probe.eval_every = 0;
    Simulation sim(probe);
    return sim.run(nullptr).final_model.size() * sizeof(float);
  }();

  attack::RandomWeightsAttack attack_a(0.5f, 21);
  Simulation buffered(config);
  const auto buffered_result = buffered.run(&attack_a);
  // Buffered peak: one slot per trained benign client plus the shared
  // crafted buffer, up to clients_per_round live updates.
  EXPECT_LE(buffered_result.peak_update_bytes,
            static_cast<std::size_t>(config.clients_per_round) * update_bytes);
  EXPECT_GE(buffered_result.peak_update_bytes,
            static_cast<std::size_t>(config.clients_per_round - 4) *
                update_bytes);

  // A budget of 4 updates forces waves of 3 training slots + the crafted
  // buffer; the fold order still matches the buffered path bit for bit.
  config.memory_budget_bytes = 4 * update_bytes;
  attack::RandomWeightsAttack attack_b(0.5f, 21);
  Simulation streaming(config);
  const auto streaming_result = streaming.run(&attack_b);
  expect_same_result(buffered_result, streaming_result);
  EXPECT_LE(streaming_result.peak_update_bytes, config.memory_budget_bytes);
  EXPECT_LT(streaming_result.peak_update_bytes,
            buffered_result.peak_update_bytes);
}

TEST(ProductionSimulation, SketchedReplayFromLiveSlotsMatchesRetrainedReplay) {
  // Sketched mKrum asks for a replay set after the first pass. A one-wave
  // round (no budget) serves it from the still-live training slots; a
  // budgeted round re-trains it in waves. Training is a pure function of
  // (global model, seed), so both must reach the same model and the same
  // selections bit for bit.
  SimulationConfig config = production_config();
  config.defense = "mkrum";
  config.sketch_dim = 64;
  config.malicious_fraction = 0.01;
  const std::size_t update_bytes =
      nn::get_flat_params(*models::task_model_factory(config.task)(1)).size() *
      sizeof(float);

  attack::RandomWeightsAttack attack_a(0.5f, 33);
  const auto one_wave = Simulation(config).run(&attack_a);
  config.memory_budget_bytes = 4 * update_bytes;
  attack::RandomWeightsAttack attack_b(0.5f, 33);
  const auto waves = Simulation(config).run(&attack_b);

  expect_same_result(one_wave, waves);
  for (std::size_t r = 0; r < one_wave.rounds.size(); ++r) {
    EXPECT_EQ(one_wave.rounds[r].malicious_passed,
              waves.rounds[r].malicious_passed);
    EXPECT_EQ(one_wave.rounds[r].benign_passed, waves.rounds[r].benign_passed);
  }
  EXPECT_LE(waves.peak_update_bytes, config.memory_budget_bytes);
  EXPECT_LT(waves.peak_update_bytes, one_wave.peak_update_bytes);
}

TEST(ProductionSimulation, NonStreamingDefenseRejectsTinyBudget) {
  SimulationConfig config = production_config();
  config.defense = "mkrum";
  config.memory_budget_bytes = 1;  // below one update — cannot be honored
  Simulation sim(config);
  EXPECT_THROW(sim.run(nullptr), std::invalid_argument);
}

TEST(ProductionSimulation, SamplesPerClientValidated) {
  SimulationConfig config = production_config();
  config.samples_per_client = 0;
  EXPECT_THROW(Simulation{config}, std::invalid_argument);
}

TEST(ProductionSimulation, MaliciousSelectionMatchesHypergeometric) {
  // At population 1e5 with 1% sybils and K = 200, the per-round malicious
  // selection count is hypergeometric with mean K*m/N = 2 and variance
  // ~1.98; over 600 rounds the sample mean lands within ~4 sigma of 2.0
  // (sigma_mean ~ 0.057). Mirrors Simulation::run's exact derivation (run
  // rng = seed ^ 0xf00d, per-round stream split(0x1000 + round)) without
  // paying for training.
  const std::size_t population = 100000;
  const std::size_t k = 200;
  const std::int64_t num_malicious = 1000;
  const std::int64_t rounds = 600;
  util::Rng rng(std::uint64_t{9} ^ 0xf00dULL);
  double total = 0.0;
  for (std::int64_t round = 0; round < rounds; ++round) {
    util::Rng round_rng =
        rng.split(0x1000 + static_cast<std::uint64_t>(round));
    const auto sampled = round_rng.sample_without_replacement(population, k);
    EXPECT_EQ(sampled.size(), k);
    std::int64_t malicious = 0;
    for (const std::size_t c : sampled) {
      if (static_cast<std::int64_t>(c) < num_malicious) ++malicious;
    }
    total += static_cast<double>(malicious);
  }
  const double mean = total / static_cast<double>(rounds);
  const double expected = static_cast<double>(k) *
                          static_cast<double>(num_malicious) /
                          static_cast<double>(population);
  EXPECT_NEAR(mean, expected, 0.25);
}

}  // namespace
}  // namespace zka::fl
