// Sketched selection layer (defense/sketch.h, tensor/sketch.h) and the
// budget-aware coordinate-wise tree streaming (defense/statistic.h).
//
// The contracts under test, in order:
//   * JlSketch determinism (seed-pure sign pattern) and the JL norm
//     guarantee the selection layer leans on;
//   * plan_sketched_selection's replay set: ascending, unique, bounded;
//   * sketched-vs-exact selection agreement for mKrum / Bulyan under
//     ZKA-R sybils at n = 32 and n = 256 (the acceptance bar is >= 95%);
//   * the streaming sketched mKrum through the full replay protocol
//     keeps exactly the batch select() set and means it, and aggregate()
//     is that stream;
//   * tree median / trimmed-mean: exact when one wave holds the round,
//     deterministic (and honestly labelled approximate) otherwise.
#include "defense/sketch.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "core/zka_r.h"
#include "defense/bulyan.h"
#include "defense/fedavg.h"
#include "defense/krum.h"
#include "defense/statistic.h"
#include "models/models.h"
#include "nn/module.h"
#include "tensor/sketch.h"
#include "util/rng.h"

namespace zka::defense {
namespace {

std::vector<std::int64_t> unit_weights(std::size_t n) {
  return std::vector<std::int64_t>(n, 1);
}

// One ZKA-R craft against the Fashion classifier, shared by every test
// in this binary (the attack itself has its own suite; here it only
// supplies realistic sybil updates).
struct ZkaRound {
  std::vector<float> global;
  Update crafted;
};

const ZkaRound& zka_round() {
  static const ZkaRound round = [] {
    const auto factory = models::task_model_factory(models::Task::kFashion);
    ZkaRound r;
    r.global = nn::get_flat_params(*factory(21));
    core::ZkaOptions opts;
    opts.synthetic_size = 6;
    opts.synthesis_epochs = 4;
    opts.classifier.epochs = 1;
    opts.classifier.batch_size = 6;
    core::ZkaRAttack attack(models::Task::kFashion, opts, 3);
    attack::AttackContext ctx;
    ctx.global_model = r.global;
    ctx.prev_global_model = r.global;
    ctx.round = 1;
    ctx.num_selected = 10;
    ctx.num_malicious_selected = 2;
    r.crafted = attack.craft(ctx);
    return r;
  }();
  return round;
}

// A round with three client populations, appended in order:
//   * core benign clients clustered tightly around the global model;
//   * `stragglers` benign clients with 5x the noise (non-IID shards,
//     stale devices) — the updates a distance-based rule excludes, with
//     a distance margin an O(1/sqrt(k)) sketch preserves;
//   * `sybils` identical ZKA-R updates at the tail (one crafted buffer,
//     many views — the server's real sybil shape, which also exercises
//     the near-duplicate cancellation guard in the scorers). ZKA-R is
//     deliberately stealthy (||crafted - global|| is far below the
//     benign spread), so the sybils rank *central* and survive —
//     exactly the paper's point, and it makes "agree with the exact
//     rule" mean "exclude the same stragglers, keep the same sybils".
//
// Agreement on exchangeable updates is not testable: when every benign
// client is IID, the exact rule's "most eccentric" picks are decided by
// noise-level margins that no approximation (or re-seeded exact run)
// could reproduce. The stragglers give the cut a real margin.
std::vector<Update> zka_round_updates(std::size_t n, std::size_t sybils,
                                      std::size_t stragglers,
                                      std::uint64_t seed) {
  const ZkaRound& zr = zka_round();
  util::Rng rng(seed);
  std::vector<Update> updates;
  updates.reserve(n);
  for (std::size_t i = 0; i + sybils < n; ++i) {
    const double sigma = (i + sybils + stragglers < n) ? 0.05 : 0.25;
    Update u(zr.global.size());
    for (std::size_t j = 0; j < u.size(); ++j) {
      u[j] = zr.global[j] + static_cast<float>(rng.normal(0.0, sigma));
    }
    updates.push_back(std::move(u));
  }
  for (std::size_t s = 0; s < sybils; ++s) updates.push_back(zr.crafted);
  return updates;
}

double selection_agreement(const std::vector<std::size_t>& exact,
                           const std::vector<std::size_t>& sketched) {
  std::size_t overlap = 0;
  for (const std::size_t i : sketched) {
    overlap += std::binary_search(exact.begin(), exact.end(), i) ? 1 : 0;
  }
  return exact.empty() ? 1.0
                       : static_cast<double>(overlap) /
                             static_cast<double>(exact.size());
}

TEST(JlSketch, SameSeedIsBitwiseIdenticalAcrossInstances) {
  const std::size_t dim = 3000, k = 64;
  util::Rng rng(1);
  std::vector<float> x(dim);
  for (auto& v : x) v = static_cast<float>(rng.normal(0.0, 1.0));

  const tensor::JlSketch a(dim, k, 42), b(dim, k, 42), c(dim, k, 43);
  std::vector<float> pa(k), pb(k), pc(k);
  a.project(x, pa);
  b.project(x, pb);
  c.project(x, pc);
  EXPECT_EQ(pa, pb) << "same (seed, dim, k) must give identical projections";
  EXPECT_NE(pa, pc) << "a different seed must change the sign pattern";
}

TEST(JlSketch, PreservesSquaredNormsApproximately) {
  // E||Px||^2 = ||x||^2 with relative error O(1/sqrt(k)): every single
  // projection lands in a wide window and the mean ratio lands in a
  // tight one.
  const std::size_t dim = 4096, k = 256;
  const tensor::JlSketch sketch(dim, k, 7);
  util::Rng rng(2);
  double ratio_sum = 0.0;
  const int trials = 32;
  std::vector<float> x(dim), p(k);
  for (int t = 0; t < trials; ++t) {
    double norm = 0.0;
    for (auto& v : x) {
      v = static_cast<float>(rng.normal(0.0, 1.0));
      norm += static_cast<double>(v) * v;
    }
    sketch.project(x, p);
    double pnorm = 0.0;
    for (const float v : p) pnorm += static_cast<double>(v) * v;
    const double ratio = pnorm / norm;
    EXPECT_GT(ratio, 0.5) << "trial " << t;
    EXPECT_LT(ratio, 1.5) << "trial " << t;
    ratio_sum += ratio;
  }
  const double mean_ratio = ratio_sum / trials;
  EXPECT_GT(mean_ratio, 0.9);
  EXPECT_LT(mean_ratio, 1.1);
}

TEST(JlSketch, RejectsSketchWiderThanInput) {
  EXPECT_THROW(tensor::JlSketch(8, 16, 1), std::exception);
  EXPECT_THROW(tensor::JlSketch(8, 0, 1), std::exception);
}

TEST(SketchedSelection, ReplaySetIsAscendingUniqueAndBounded) {
  const std::size_t n = 100, f = 10, band = 16;
  const std::size_t m = n - f;
  std::vector<std::size_t> order(n);
  // A scrambled-but-deterministic ranking (not identity, so rank != index).
  for (std::size_t i = 0; i < n; ++i) order[i] = (i * 37) % n;
  const auto plan = plan_sketched_selection(order, n, f, m, band);

  ASSERT_EQ(plan.order.size(), n);
  EXPECT_TRUE(std::is_sorted(plan.replay.begin(), plan.replay.end()));
  EXPECT_EQ(std::adjacent_find(plan.replay.begin(), plan.replay.end()),
            plan.replay.end());
  // O(f + band), never O(n): the whole point of the streaming second pass.
  EXPECT_LE(plan.replay.size(), 2 * band + 2 * f + 2);
  // Every band rank and every rank outside the centroid pool must be
  // replayable — the re-check reads those rows at full dimension.
  for (std::size_t r = plan.m - plan.band_lo; r < plan.m + plan.band_hi;
       ++r) {
    EXPECT_TRUE(std::binary_search(plan.replay.begin(), plan.replay.end(),
                                   plan.order[r]))
        << "band rank " << r << " not replayable";
  }
  for (std::size_t r = plan.pool; r < n; ++r) {
    EXPECT_TRUE(std::binary_search(plan.replay.begin(), plan.replay.end(),
                                   plan.order[r]))
        << "pool-complement rank " << r << " not replayable";
  }
}

TEST(SketchedSelection, WholeRoundSelectedNeedsNoReplay) {
  // m == n: nothing is rejected, no band, the mean is sum_all / n.
  const std::size_t n = 64;
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  const auto plan = plan_sketched_selection(order, n, 0, n, 16);
  EXPECT_TRUE(plan.replay.empty());
  EXPECT_EQ(plan.band_lo + plan.band_hi, 0u);
}

class SketchAgreementTest
    : public ::testing::TestWithParam<std::pair<std::size_t, std::size_t>> {};

TEST_P(SketchAgreementTest, MkrumSketchedMatchesExactSelection) {
  const auto [n, sybils] = GetParam();
  // m = n - f: the f excluded slots land on the f stragglers.
  const auto updates = zka_round_updates(n, sybils, sybils, 0xA0 + n);
  const SketchOptions sketch{.sketch_dim = 256, .recheck_band = 16};
  ASSERT_TRUE(sketch.enabled_for(n, updates.front().size()));

  const MultiKrum exact(sybils, 0, /*iterative=*/false);
  const MultiKrum sketched(sybils, 0, /*iterative=*/false, sketch);
  const auto exact_sel = exact.select(updates);
  const auto sketched_sel = sketched.select(updates);
  ASSERT_EQ(exact_sel.size(), n - sybils);
  ASSERT_EQ(sketched_sel.size(), n - sybils);
  EXPECT_GE(selection_agreement(exact_sel, sketched_sel), 0.95)
      << "sketched mKrum drifted from the exact selection at n = " << n;
}

INSTANTIATE_TEST_SUITE_P(
    RoundSizes, SketchAgreementTest,
    ::testing::Values(std::pair<std::size_t, std::size_t>{32, 4},
                      std::pair<std::size_t, std::size_t>{256, 16}),
    [](const ::testing::TestParamInfo<std::pair<std::size_t, std::size_t>>&
           info) { return "n" + std::to_string(info.param.first); });

TEST(SketchedKrum, WinnerIsBenignUnderAmplifiedZkaRSybils) {
  // Plain Krum (m = 1) with the ZKA-R direction boosted the way a
  // visibility-unconstrained attacker would scale it — to 4x the benign
  // spread, well outside the cluster: the sketched rule must still hand
  // the round to a benign update.
  const std::size_t n = 32, sybils = 4;
  auto updates = zka_round_updates(n, sybils, 0, 0xB1);
  const ZkaRound& zr = zka_round();
  double delta_sq = 0.0;
  for (std::size_t j = 0; j < zr.global.size(); ++j) {
    const double d = zr.crafted[j] - zr.global[j];
    delta_sq += d * d;
  }
  const double spread =
      0.05 * std::sqrt(static_cast<double>(zr.global.size()));
  const float amp =
      static_cast<float>(4.0 * spread / std::sqrt(delta_sq));
  for (std::size_t s = n - sybils; s < n; ++s) {
    for (std::size_t j = 0; j < updates[s].size(); ++j) {
      updates[s][j] = zr.global[j] + amp * (zr.crafted[j] - zr.global[j]);
    }
  }
  const SketchOptions sketch{.sketch_dim = 256, .recheck_band = 8};
  const MultiKrum krum(sybils, 1, /*iterative=*/false, sketch);
  const auto selected = krum.select(updates);
  ASSERT_EQ(selected.size(), 1u);
  EXPECT_LT(selected.front(), n - sybils)
      << "sketched Krum elected a sybil";
}

TEST(SketchedBulyan, SketchedMatchesExactSelection) {
  // n >= 4f + 3; theta = n - 2f = 24 slots land exactly on the 20 core
  // clients + 4 central sybils, rejecting the 8 stragglers with margin.
  const std::size_t n = 32, f = 4;
  const auto updates = zka_round_updates(n, f, 2 * f, 0xC2);
  const auto weights = unit_weights(n);
  const SketchOptions sketch{.sketch_dim = 256, .recheck_band = 16};

  Bulyan exact(f);
  Bulyan sketched(f, sketch);
  const auto exact_sel = exact.aggregate(updates, weights).selected;
  const auto sketched_sel = sketched.aggregate(updates, weights).selected;
  ASSERT_FALSE(exact_sel.empty());
  ASSERT_EQ(exact_sel.size(), sketched_sel.size());
  EXPECT_GE(selection_agreement(exact_sel, sketched_sel), 0.95)
      << "sketched Bulyan drifted from the exact selection";
}

TEST(SketchedMkrumStreaming, KeepsTheBatchSelectionAndMeansIt) {
  const std::size_t n = 32, sybils = 4;
  const auto updates = zka_round_updates(n, sybils, sybils, 0xD3);
  const auto weights = unit_weights(n);
  const std::size_t dim = updates.front().size();
  const SketchOptions sketch{.sketch_dim = 256, .recheck_band = 16};

  MultiKrum streaming(sybils, 0, /*iterative=*/false, sketch);
  ASSERT_TRUE(streaming.supports_streaming());
  EXPECT_TRUE(streaming.streaming_exact());
  streaming.begin_stream(dim, weights);
  for (const auto& u : updates) streaming.stream_update(u);
  const auto request = streaming.stream_replay_request();
  EXPECT_FALSE(request.empty());
  EXPECT_LT(request.size(), n);  // bounded second pass, not a re-send of all
  const std::vector<std::size_t> replay(request.begin(), request.end());
  for (const std::size_t i : replay) streaming.stream_replay(i, updates[i]);
  const AggregationResult streamed = streaming.finish_stream();

  // Reference without the stream: select() projects the batch in one
  // pass, and mean_of sums the selection directly.
  const std::vector<std::size_t> selected = streaming.select(updates);
  EXPECT_EQ(selected, streamed.selected);
  const Update mean = mean_of(as_views(updates), selected);
  ASSERT_EQ(mean.size(), streamed.model.size());
  for (std::size_t i = 0; i < mean.size(); ++i) {
    ASSERT_NEAR(mean[i], streamed.model[i],
                1e-5f * std::max(1.0f, std::abs(mean[i])))
        << "streaming diverged at coordinate " << i;
  }

  // aggregate() drives the same stream.
  MultiKrum batch(sybils, 0, /*iterative=*/false, sketch);
  const AggregationResult driven = batch.aggregate(updates, weights);
  EXPECT_EQ(driven.selected, streamed.selected);
  EXPECT_EQ(driven.model, streamed.model);
}

TEST(SketchedMkrumStreaming, DegenerateSmallRoundBuffersAndStaysExact) {
  // n < 8 disables sketching; the streaming interface must still work by
  // buffering internally and running the exact rule.
  const std::size_t n = 6, dim = 700;
  util::Rng rng(4);
  std::vector<Update> updates(n, Update(dim));
  for (auto& u : updates) {
    for (auto& x : u) x = static_cast<float>(rng.normal(0.0, 1.0));
  }
  const auto weights = unit_weights(n);
  const SketchOptions sketch{.sketch_dim = 256, .recheck_band = 16};

  // The unsketched rule never streams: its aggregate() is the batch rule.
  MultiKrum exact(2, 0);
  ASSERT_FALSE(exact.supports_streaming());
  const AggregationResult batch = exact.aggregate(updates, weights);

  MultiKrum streaming(2, 0, /*iterative=*/false, sketch);
  streaming.begin_stream(dim, weights);
  for (const auto& u : updates) streaming.stream_update(u);
  EXPECT_TRUE(streaming.stream_replay_request().empty());
  const AggregationResult streamed = streaming.finish_stream();
  EXPECT_EQ(batch.selected, streamed.selected);
  EXPECT_EQ(batch.model, streamed.model);
}

TEST(SketchedMkrumStreaming, RejectsOutOfOrderReplay) {
  const std::size_t n = 32, sybils = 4;
  const auto updates = zka_round_updates(n, sybils, sybils, 0xE4);
  const SketchOptions sketch{.sketch_dim = 256, .recheck_band = 16};
  MultiKrum streaming(sybils, 0, /*iterative=*/false, sketch);
  streaming.begin_stream(updates.front().size(), unit_weights(n));
  for (const auto& u : updates) streaming.stream_update(u);
  const auto request = streaming.stream_replay_request();
  ASSERT_GT(request.size(), 1u);
  const std::size_t wrong = request[1];  // ascending contract: [0] first
  EXPECT_THROW(streaming.stream_replay(wrong, updates[wrong]),
               std::exception);
}

TEST(CoordTree, WaveSizeClampsToUsefulRange) {
  const std::size_t dim = 1000, n = 64;
  // Tiny budget: floor at 2 (a 1-ary tree never reduces).
  EXPECT_EQ(coord_tree_wave(1, dim, n), 2u);
  // Exactly 5 updates of dim floats per wave.
  EXPECT_EQ(coord_tree_wave(5 * dim * sizeof(float), dim, n), 5u);
  // Unbounded-ish budget: cap at n (one wave = exact batch rule).
  EXPECT_EQ(coord_tree_wave(1000 * dim * sizeof(float), dim, n), n);
}

std::vector<Update> noisy_round(std::size_t n, std::size_t dim,
                                std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<Update> updates(n, Update(dim));
  for (auto& u : updates) {
    for (auto& x : u) x = static_cast<float>(rng.normal(0.0, 1.0));
  }
  return updates;
}

template <typename MakeAgg>
AggregationResult stream_all(MakeAgg make, const std::vector<Update>& updates,
                             const std::vector<std::int64_t>& weights) {
  auto agg = make();
  agg->begin_stream(updates.front().size(), weights);
  for (const auto& u : updates) agg->stream_update(u);
  return agg->finish_stream();
}

TEST(TreeMedian, SingleWaveStreamingEqualsBatchBitwise) {
  const std::size_t n = 9, dim = 513;
  const auto updates = noisy_round(n, dim, 5);
  const auto weights = unit_weights(n);
  const std::size_t budget = n * dim * sizeof(float);  // one wave holds all

  Median batch(budget);
  const auto exact = batch.aggregate(updates, weights);
  const auto streamed = stream_all(
      [&] { return std::make_unique<Median>(budget); }, updates, weights);
  EXPECT_EQ(exact.model, streamed.model);
}

TEST(TreeMedian, MultiWaveIsDeterministicAndBounded) {
  const std::size_t n = 10, dim = 257;
  const auto updates = noisy_round(n, dim, 6);
  const auto weights = unit_weights(n);
  const std::size_t budget = 4 * dim * sizeof(float);  // wave of 4 -> 3 levels

  Median median(budget);
  EXPECT_TRUE(median.supports_streaming());
  EXPECT_FALSE(median.streaming_exact());  // documented approximation

  const auto a = stream_all([&] { return std::make_unique<Median>(budget); },
                            updates, weights);
  const auto b = stream_all([&] { return std::make_unique<Median>(budget); },
                            updates, weights);
  EXPECT_EQ(a.model, b.model) << "same arrival order must be bitwise stable";

  // Median-of-medians stays inside the per-coordinate value envelope.
  for (std::size_t j = 0; j < dim; ++j) {
    float lo = updates[0][j], hi = updates[0][j];
    for (const auto& u : updates) {
      lo = std::min(lo, u[j]);
      hi = std::max(hi, u[j]);
    }
    ASSERT_GE(a.model[j], lo) << "coordinate " << j;
    ASSERT_LE(a.model[j], hi) << "coordinate " << j;
  }
}

TEST(TreeTrimmedMean, SingleWaveStreamingEqualsBatchBitwise) {
  const std::size_t n = 11, dim = 400;
  const auto updates = noisy_round(n, dim, 7);
  const auto weights = unit_weights(n);
  const std::size_t budget = n * dim * sizeof(float);

  TrimmedMean batch(2, budget);
  const auto exact = batch.aggregate(updates, weights);
  const auto streamed = stream_all(
      [&] { return std::make_unique<TrimmedMean>(2, budget); }, updates,
      weights);
  EXPECT_EQ(exact.model, streamed.model);
}

TEST(Factory, SketchAndBudgetKnobsReachTheRules) {
  AggregatorOptions options;
  options.num_byzantine = 2;
  options.sketch_dim = 128;
  const auto mkrum = make_aggregator("mkrum", options);
  EXPECT_TRUE(mkrum->supports_streaming());
  EXPECT_TRUE(mkrum->streaming_exact());

  AggregatorOptions budgeted;
  budgeted.memory_budget_bytes = 1 << 20;
  const auto median = make_aggregator("median", budgeted);
  EXPECT_TRUE(median->supports_streaming());
  EXPECT_FALSE(median->streaming_exact());

  // Default options keep the exact batch-only behaviour.
  EXPECT_FALSE(
      make_aggregator("mkrum", {.num_byzantine = 2})->supports_streaming());
  EXPECT_FALSE(
      make_aggregator("median", {.num_byzantine = 2})->supports_streaming());
}

}  // namespace
}  // namespace zka::defense
