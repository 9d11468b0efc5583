// Runtime coverage for the ingress sanitize layer (defense/sanitize.h),
// the server's trust boundary for client payloads. Registered at
// ZKA_THREADS 1/4/8 (see CMakeLists.txt) so the admitted-values path is
// exercised under every pool size the determinism suite uses.
#include "defense/sanitize.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <span>
#include <vector>

#include "attack/nan_injection.h"
#include "defense/aggregator.h"
#include "defense/fedavg.h"
#include "defense/statistic.h"
#include "fl/simulation.h"

namespace zka::defense {
namespace {

constexpr float kNaN = std::numeric_limits<float>::quiet_NaN();
constexpr float kInf = std::numeric_limits<float>::infinity();
constexpr std::int64_t kInt64Max = std::numeric_limits<std::int64_t>::max();

std::vector<UpdateView> views_of(const std::vector<Update>& updates) {
  return as_views(updates);
}

TEST(Ingress, CleanBatchPassesThroughBitwise) {
  sanitize::Ingress ingress;
  const std::vector<Update> updates{{1.0f, 2.0f}, {3.0f, 4.0f}};
  const auto views = views_of(updates);
  const auto admitted = ingress.admit_updates(views);
  ASSERT_EQ(admitted.size(), views.size());
  // Pass-through means the very same spans, not equal copies.
  EXPECT_EQ(admitted.data(), views.data());
  EXPECT_EQ(ingress.zeroed_values(), 0u);
}

TEST(Ingress, DirtyRowsZeroedCleanRowsShared) {
  sanitize::Ingress ingress;
  const std::vector<Update> updates{{1.0f, kNaN, 3.0f}, {4.0f, 5.0f, 6.0f}};
  const auto views = views_of(updates);
  const auto admitted = ingress.admit_updates(views);
  ASSERT_EQ(admitted.size(), 2u);
  EXPECT_EQ(admitted[0][0], 1.0f);
  EXPECT_EQ(admitted[0][1], 0.0f);  // zeroed, not dropped
  EXPECT_EQ(admitted[0][2], 3.0f);
  // The clean row is still a view of the caller's bytes.
  EXPECT_EQ(admitted[1].data(), updates[1].data());
  EXPECT_EQ(ingress.zeroed_values(), 1u);
}

TEST(Ingress, StreamRowZeroed) {
  sanitize::Ingress ingress;
  const Update row{kInf, 2.0f, kNaN};
  const auto admitted = ingress.admit_update(row);
  ASSERT_EQ(admitted.size(), 3u);
  EXPECT_EQ(admitted[0], 0.0f);
  EXPECT_EQ(admitted[1], 2.0f);
  EXPECT_EQ(admitted[2], 0.0f);
  EXPECT_EQ(ingress.zeroed_values(), 2u);
}

TEST(Ingress, WeightOutlierClampedToMedianMultiple) {
  sanitize::Ingress ingress;
  std::vector<std::int64_t> weights(15, 10);
  weights.push_back(kInt64Max);  // the sybil
  const auto admitted = ingress.admit_weights(weights);
  ASSERT_EQ(admitted.size(), weights.size());
  EXPECT_EQ(admitted.back(), 80);  // median 10 * default ratio 8
  for (std::size_t i = 0; i < 15; ++i) EXPECT_EQ(admitted[i], 10);
  EXPECT_EQ(ingress.clamped_weights(), 1u);
  // Clean weight lists are the caller's span, untouched.
  const std::vector<std::int64_t> clean(4, 7);
  EXPECT_EQ(ingress.admit_weights(clean).data(), clean.data());
}

TEST(Ingress, ZeroMedianLeavesWeightsAlone) {
  // Half-empty shards are legitimate (weight 0); with a zero median there
  // is no scale to clamp against, and repairing weights here would hide
  // the protocol violation validate_updates exists to reject.
  sanitize::Ingress ingress;
  const std::vector<std::int64_t> weights{0, 0, 0, 5};
  const auto admitted = ingress.admit_weights(weights);
  EXPECT_EQ(admitted.data(), weights.data());
  EXPECT_EQ(ingress.clamped_weights(), 0u);
}

TEST(Ingress, DisabledIsBitwisePassThrough) {
  sanitize::Ingress ingress(sanitize::Options{.enabled = false});
  const std::vector<Update> updates{{kNaN}};
  const auto views = views_of(updates);
  EXPECT_EQ(ingress.admit_updates(views).data(), views.data());
  EXPECT_TRUE(std::isnan(ingress.admit_update(updates[0])[0]));
  const std::vector<std::int64_t> weights{1, kInt64Max};
  EXPECT_EQ(ingress.admit_weights(weights).data(), weights.data());
  EXPECT_EQ(ingress.zeroed_values(), 0u);
  EXPECT_EQ(ingress.clamped_weights(), 0u);
}

// ── The INT64_MAX sybil (reported_weight is attacker-chosen) ───────────

TEST(SanitizeWeights, SybilWeightCannotOwnTheMean) {
  // 15 benign clients (weight 10, value 0) and one sybil reporting
  // INT64_MAX with value 1: undefended, the sybil's coefficient is ~1 and
  // the "weighted mean" is the sybil's update. The ingress clamp bounds
  // it to median*8, i.e. at most 80/230 of the mass.
  std::vector<Update> updates(15, Update{0.0f});
  updates.push_back(Update{1.0f});
  std::vector<std::int64_t> weights(15, 10);
  weights.push_back(kInt64Max);

  FedAvg undefended;
  undefended.set_sanitize({.enabled = false});
  EXPECT_GT(undefended.aggregate(updates, weights).model[0], 0.9f);

  FedAvg defended;  // sanitize on by default
  EXPECT_LT(defended.aggregate(updates, weights).model[0], 0.5f);
  EXPECT_EQ(defended.ingress().clamped_weights(), 1u);
}

// ── Every defense, poisoned batch, all thread counts ───────────────────

class SanitizedDefense : public ::testing::TestWithParam<const char*> {};

TEST_P(SanitizedDefense, PoisonedBatchYieldsFiniteModel) {
  auto agg = make_aggregator(GetParam(), {.num_byzantine = 2});
  std::vector<Update> updates;
  for (int k = 0; k < 8; ++k) {
    updates.push_back(Update{0.1f * static_cast<float>(k), 1.0f, -0.5f});
  }
  updates[1][0] = kNaN;
  updates[6][2] = kInf;
  std::vector<std::int64_t> weights(8, 3);
  weights[4] = kInt64Max;
  const auto result = agg->aggregate(updates, weights);
  ASSERT_EQ(result.model.size(), 3u);
  for (const float v : result.model) {
    EXPECT_TRUE(std::isfinite(v)) << agg->name();
  }
  EXPECT_GE(agg->ingress().zeroed_values(), 2u) << agg->name();
}

INSTANTIATE_TEST_SUITE_P(AllDefenses, SanitizedDefense,
                         ::testing::Values("fedavg", "median", "trmean",
                                           "krum", "mkrum", "bulyan",
                                           "foolsgold", "normclip",
                                           "geomedian", "centeredclip",
                                           "dnc"),
                         [](const ::testing::TestParamInfo<const char*>& info) {
                           return std::string(info.param);
                         });

TEST(SanitizedStreaming, StreamMatchesBatchOnPoisonedInput) {
  // The streaming wrapper admits each row exactly as the batch wrapper
  // admits the matrix, so FedAvg's bitwise batch==stream contract must
  // survive poisoned input.
  std::vector<Update> updates{{1.0f, kNaN}, {3.0f, 4.0f}, {kInf, 6.0f}};
  const std::vector<std::int64_t> weights{2, 3, 4};
  FedAvg batch;
  const auto expected = batch.aggregate(updates, weights).model;
  FedAvg streaming;
  streaming.begin_stream(2, weights);
  for (const auto& u : updates) streaming.stream_update(u);
  const auto streamed = streaming.finish_stream().model;
  ASSERT_EQ(streamed.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(streamed[i], expected[i]);  // bitwise, not approximately
  }
}

TEST(SanitizedStreaming, SanitizeOffStreamMatchesBatchOnNonFiniteInput) {
  // With the ingress layer off, a budgeted coordinate-wise rule must
  // compute what its batch rule computes on the same non-finite rows, not
  // throw: finiteness is the ingress layer's job alone, so switching it
  // off reproduces the undefended server. The budget admits the whole
  // round in one tree wave, where the tree rule is the batch rule.
  const std::vector<Update> updates{
      {1.0f, kNaN, 3.0f}, {2.0f, 2.0f, 2.0f}, {0.0f, 5.0f, 1.0f}};
  const std::vector<std::int64_t> weights{1, 1, 1};
  const auto run = [&](Aggregator& batch, Aggregator& streaming) {
    batch.set_sanitize({.enabled = false});
    streaming.set_sanitize({.enabled = false});
    const Update expected = batch.aggregate(updates, weights).model;
    streaming.begin_stream(3, weights);
    for (const auto& u : updates) streaming.stream_update(u);
    const Update streamed = streaming.finish_stream().model;
    ASSERT_EQ(streamed.size(), expected.size());
    // Bit patterns, because NaN != NaN.
    EXPECT_EQ(0, std::memcmp(streamed.data(), expected.data(),
                             expected.size() * sizeof(float)));
  };
  Median median_batch(1 << 20);
  Median median_stream(1 << 20);
  run(median_batch, median_stream);
  TrimmedMean trmean_batch(1, 1 << 20);
  TrimmedMean trmean_stream(1, 1 << 20);
  run(trmean_batch, trmean_stream);
}

// ── NaN injection end-to-end: collapse without the layer, recovery with ──

fl::SimulationConfig nan_config() {
  fl::SimulationConfig config;
  config.task = models::Task::kFashion;
  config.num_clients = 20;
  config.clients_per_round = 5;
  config.malicious_fraction = 0.2;
  config.rounds = 10;
  config.train_size = 300;
  config.test_size = 120;
  config.seed = 3;
  return config;
}

TEST(NaNInjection, CollapsesUndefendedServerRecoversWithSanitize) {
  attack::NaNInjectionAttack attack;

  // Paper-faithful server: ingress off. One poisoned round NaNs the
  // global model and it never comes back.
  fl::SimulationConfig off = nan_config();
  off.custom_defense = [] {
    auto agg = std::make_unique<FedAvg>();
    agg->set_sanitize({.enabled = false});
    return agg;
  };
  const auto collapsed = fl::Simulation(off).run(&attack);
  EXPECT_LT(collapsed.final_accuracy, 0.25);

  // Default server: the poisoned coordinates are zeroed at admission, the
  // sybils degrade to zero-updates, and training proceeds.
  const auto recovered = fl::Simulation(nan_config()).run(&attack);
  EXPECT_GT(recovered.max_accuracy, 0.35);
  EXPECT_GT(recovered.max_accuracy, collapsed.final_accuracy + 0.1);
}

}  // namespace
}  // namespace zka::defense
