// Bitwise thread-count invariance of every aggregator.
//
// The parallel helpers under the defenses (weighted_sum, the Gram packing,
// the coordinate-block transpose) split work along fixed block grids, so
// the aggregate must be bitwise identical no matter how many workers the
// pool has. Two enforcement layers:
//   1. In-process: each aggregator runs on the pool and again inside
//      test::serially (pure serial reference: every kernel runs as one
//      range on the calling thread); models must be bitwise equal and
//      selections identical.
//   2. Cross-process: CMake registers this binary three times with
//      ZKA_THREADS = 1, 4 and 8 (the pool reads the variable once at
//      startup), so layer 1's "parallel" leg itself runs under three
//      different worker counts, and any divergence fails one of the runs.
// The successive-exclusion Krum picks (Bulyan's selection) are further
// checked against the original per-pick partial_sort loop on seeded random
// distance matrices, under the same three worker counts.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "defense/aggregator.h"
#include "defense/distance.h"
#include "defense/sketch.h"
#include "serially.h"
#include "util/rng.h"

namespace zka::defense {
namespace {

// Big enough to cross every parallel threshold (n*dim >= 2^18, dim spans
// many coordinate blocks, Gram fast path active).
constexpr std::size_t kNumClients = 12;
constexpr std::size_t kDim = 25000;

std::vector<Update> round_updates(std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<Update> updates;
  for (std::size_t k = 0; k + 2 < kNumClients; ++k) {
    Update u(kDim);
    for (auto& x : u) x = static_cast<float>(rng.normal(0.0, 0.5));
    updates.push_back(std::move(u));
  }
  // Two colluding near-duplicates so the distance correction pass and the
  // Sybil logic participate.
  Update colluder(kDim);
  for (auto& x : colluder) x = static_cast<float>(rng.normal(1.0, 0.5));
  Update near_copy = colluder;
  for (auto& x : near_copy) x += static_cast<float>(rng.normal(0.0, 1e-5));
  updates.push_back(std::move(colluder));
  updates.push_back(std::move(near_copy));
  return updates;
}

class DeterminismTest : public ::testing::TestWithParam<const char*> {};

TEST_P(DeterminismTest, ParallelMatchesSerialBitwise) {
  const std::vector<Update> updates = round_updates(2024);
  const std::vector<std::int64_t> weights(kNumClients, 3);

  // Fresh aggregator per mode: stateful rules (CenteredClip's center, DnC's
  // RNG stream) must see identical histories in both legs.
  const auto parallel_agg = make_aggregator(GetParam(), {.num_byzantine = 2});
  const AggregationResult parallel = parallel_agg->aggregate(updates, weights);

  const auto serial_agg = make_aggregator(GetParam(), {.num_byzantine = 2});
  const AggregationResult serial =
      test::serially([&] { return serial_agg->aggregate(updates, weights); });

  EXPECT_EQ(parallel.selected, serial.selected);
  ASSERT_EQ(parallel.model.size(), serial.model.size());
  for (std::size_t i = 0; i < parallel.model.size(); ++i) {
    ASSERT_EQ(parallel.model[i], serial.model[i])
        << GetParam() << " diverges at coordinate " << i << " (ZKA_THREADS="
        << (std::getenv("ZKA_THREADS") ? std::getenv("ZKA_THREADS") : "unset")
        << ")";
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllAggregators, DeterminismTest,
    ::testing::Values("fedavg", "median", "trmean", "krum", "mkrum", "bulyan",
                      "foolsgold", "normclip", "geomedian", "centeredclip",
                      "dnc"),
    [](const ::testing::TestParamInfo<const char*>& info) {
      return std::string(info.param);
    });

// The sketched fast path (JL projection kernel, blocked Gram scorer,
// exact band re-check) must hold the same invariance: the block grids it
// parallelizes over are pure functions of (n, k), never of the worker
// count. kDim = 25000 >> 2 * sketch_dim, so the sketch path is active.
TEST(SketchedDeterminism, SketchedMkrumParallelMatchesSerialBitwise) {
  const std::vector<Update> updates = round_updates(2025);
  const std::vector<std::int64_t> weights(kNumClients, 3);
  AggregatorOptions options;
  options.num_byzantine = 2;
  options.sketch_dim = 256;

  const AggregationResult parallel =
      make_aggregator("mkrum", options)->aggregate(updates, weights);
  const AggregationResult serial = test::serially([&] {
    return make_aggregator("mkrum", options)->aggregate(updates, weights);
  });

  EXPECT_EQ(parallel.selected, serial.selected);
  ASSERT_EQ(parallel.model.size(), serial.model.size());
  for (std::size_t i = 0; i < parallel.model.size(); ++i) {
    ASSERT_EQ(parallel.model[i], serial.model[i])
        << "sketched mkrum diverges at coordinate " << i;
  }
}

// Tree aggregation (approximate streaming median/trmean) promises
// bitwise determinism for a fixed arrival order and budget — including
// across worker counts, since its per-node reducers run on fixed
// coordinate blocks.
class TreeStreamDeterminismTest
    : public ::testing::TestWithParam<const char*> {};

TEST_P(TreeStreamDeterminismTest, StreamingParallelMatchesSerialBitwise) {
  const std::vector<Update> updates = round_updates(2026);
  const std::vector<std::int64_t> weights(kNumClients, 3);
  AggregatorOptions options;
  options.num_byzantine = 2;
  // A wave of 5 forces a multi-level tree (12 arrivals, 3+ nodes).
  options.memory_budget_bytes = 5 * kDim * sizeof(float);

  const auto stream_round = [&] {
    auto agg = make_aggregator(GetParam(), options);
    agg->begin_stream(kDim, weights);
    for (const auto& u : updates) agg->stream_update(u);
    return agg->finish_stream();
  };

  const AggregationResult parallel = stream_round();
  const AggregationResult serial = test::serially(stream_round);

  ASSERT_EQ(parallel.model.size(), serial.model.size());
  for (std::size_t i = 0; i < parallel.model.size(); ++i) {
    ASSERT_EQ(parallel.model[i], serial.model[i])
        << GetParam() << " tree streaming diverges at coordinate " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(TreeRules, TreeStreamDeterminismTest,
                         ::testing::Values("median", "trmean"),
                         [](const ::testing::TestParamInfo<const char*>& info) {
                           return std::string(info.param);
                         });

// ── Successive-exclusion picks vs the partial_sort reference ───────────

// Krum score as every pick used to compute it: gather the non-excluded
// distances, partial_sort, sum the k smallest in ascending order.
double reference_score(const PairwiseMatrix& sq_dist, std::size_t i,
                       std::size_t num_neighbors,
                       const std::vector<bool>& excluded) {
  const std::size_t n = sq_dist.size();
  std::vector<double> dists;
  dists.reserve(n);
  const double* row = sq_dist.row(i);
  for (std::size_t j = 0; j < n; ++j) {
    if (j == i || excluded[j]) continue;
    dists.push_back(row[j]);
  }
  const std::size_t k = std::min(num_neighbors, dists.size());
  std::partial_sort(dists.begin(),
                    dists.begin() + static_cast<std::ptrdiff_t>(k),
                    dists.end());
  double score = 0.0;
  for (std::size_t j = 0; j < k; ++j) score += dists[j];
  return score;
}

// The pick loop MultiKrum::select and sketched_order each carried, re-scoring
// every survivor from scratch at every pick.
std::vector<std::size_t> reference_picks(const PairwiseMatrix& sq_dist,
                                         std::size_t neighbors,
                                         std::size_t picks,
                                         std::vector<bool>& excluded) {
  const std::size_t n = sq_dist.size();
  std::vector<std::size_t> order;
  for (std::size_t round = 0; round < picks; ++round) {
    double best_score = std::numeric_limits<double>::infinity();
    std::size_t best = n;
    for (std::size_t i = 0; i < n; ++i) {
      if (excluded[i]) continue;
      const double score = reference_score(sq_dist, i, neighbors, excluded);
      if (score < best_score) {
        best_score = score;
        best = i;
      }
    }
    if (best == n) break;
    excluded[best] = true;
    order.push_back(best);
  }
  return order;
}

// Seeded random symmetric matrix. `levels` > 0 quantizes distances to that
// many values so exact ties are everywhere; `sybils` trailing rows are
// copies of row 0 (zero distance to it and to each other, identical
// distances to everyone else).
PairwiseMatrix random_matrix(util::Rng& rng, std::size_t n, int levels,
                             std::size_t sybils) {
  PairwiseMatrix d(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      const double v =
          levels > 0 ? static_cast<double>(rng.uniform_index(levels))
                     : rng.uniform(0.0, 10.0);
      d(i, j) = v;
      d(j, i) = v;
    }
  }
  for (std::size_t s = n - sybils; s < n; ++s) {
    for (std::size_t j = 0; j < n; ++j) {
      const double v = j >= n - sybils ? 0.0 : d(0, j);
      d(s, j) = v;
      d(j, s) = v;
    }
    d(s, 0) = 0.0;
    d(0, s) = 0.0;
    d(s, s) = 0.0;
  }
  return d;
}

struct PickCase {
  std::size_t n;
  int levels;
  std::size_t sybils;
  std::size_t pre_excluded;
  std::size_t neighbors;
  std::size_t picks;
};

TEST(SuccessiveKrumPicks, MatchesPartialSortReferenceOnRandomMatrices) {
  util::Rng rng(1414);
  std::vector<PickCase> cases;
  for (const std::size_t n :
       {2, 3, 4, 5, 7, 8, 12, 13, 31, 64, 100, 173, 300}) {
    for (const int levels : {0, 3}) {
      const std::size_t sybils = n >= 6 ? n / 6 : 0;
      const std::size_t pre = n >= 4 ? 1 + n / 10 : 0;
      // The reference costs O(picks·n²·log n): large rounds stop early.
      const std::size_t picks = n <= 100 ? n : 16;
      // Few neighbors (the k-nearest cut binds until late) and more
      // neighbors than survivors (every score sums all other survivors).
      cases.push_back({n, levels, sybils, pre, n > 4 ? n / 3 : 1, picks});
      cases.push_back({n, levels, 0, 0, n + 5, picks});
      cases.push_back({n, levels, sybils, 0, n > 3 ? n - 3 : 1,
                       std::min(picks, n / 2 + 1)});
    }
  }
  // One round past the parallel argsort gate, kept cheap with few picks.
  cases.push_back({512, 4, 40, 7, 400, 6});

  for (const PickCase& c : cases) {
    const PairwiseMatrix d = random_matrix(rng, c.n, c.levels, c.sybils);
    std::vector<bool> excluded(c.n, false);
    for (std::size_t e = 0; e < c.pre_excluded; ++e) {
      excluded[rng.uniform_index(c.n)] = true;
    }
    std::vector<bool> expected_mask = excluded;
    const std::vector<std::size_t> expected =
        reference_picks(d, c.neighbors, c.picks, expected_mask);

    std::vector<std::size_t> got = {c.n + 1};  // appended to, not replaced
    successive_krum_picks(d, c.neighbors, c.picks, excluded, got);
    ASSERT_EQ(got.front(), c.n + 1);
    got.erase(got.begin());
    EXPECT_EQ(got, expected) << "n=" << c.n << " levels=" << c.levels
                             << " sybils=" << c.sybils
                             << " neighbors=" << c.neighbors;
    EXPECT_EQ(excluded, expected_mask) << "n=" << c.n;
  }
}

TEST(SuccessiveKrumPicks, IterativeSketchedOrderMatchesReference) {
  util::Rng rng(1415);
  constexpr std::size_t kRowDim = 24;
  for (const std::size_t n : {2, 3, 9, 40, 150}) {
    for (const std::size_t f : {std::size_t{0}, n / 5}) {
      // Sketch rows: a tight cloud, a few stragglers, and identical sybils.
      std::vector<float> rows(n * kRowDim);
      for (std::size_t i = 0; i < n; ++i) {
        const double spread = i % 7 == 3 ? 2.0 : 0.3;
        for (std::size_t c = 0; c < kRowDim; ++c) {
          rows[i * kRowDim + c] = static_cast<float>(rng.normal(0.0, spread));
        }
      }
      for (std::size_t s = n - n / 8; s < n; ++s) {
        std::copy_n(rows.begin(), kRowDim,
                    rows.begin() + static_cast<std::ptrdiff_t>(s * kRowDim));
      }
      const std::size_t m = n > 2 * f ? n - 2 * f : 1;

      std::vector<UpdateView> views;
      for (std::size_t i = 0; i < n; ++i) {
        views.emplace_back(rows.data() + i * kRowDim, kRowDim);
      }
      const PairwiseMatrix d = pairwise_sq_distances(views);
      const std::size_t neighbors = n > f + 2 ? n - f - 2 : 1;
      std::vector<bool> excluded(n, false);
      std::vector<std::size_t> expected =
          reference_picks(d, neighbors, std::min(m, n), excluded);
      std::vector<std::pair<double, std::size_t>> rest;
      for (std::size_t i = 0; i < n; ++i) {
        if (!excluded[i]) {
          rest.emplace_back(reference_score(d, i, neighbors, excluded), i);
        }
      }
      std::sort(rest.begin(), rest.end());
      for (const auto& [score, i] : rest) expected.push_back(i);

      EXPECT_EQ(sketched_order(rows, n, kRowDim, f, m, /*iterative=*/true),
                expected)
          << "n=" << n << " f=" << f;
    }
  }
}

}  // namespace
}  // namespace zka::defense
