// Randomized differential harness for the server ingestion protocol
// (defense/aggregator.h): every round reaches a rule as
// begin_stream -> stream_update* -> stream_replay* -> finish_stream. For
// every factory rule — plus the sketched Krum family and the budgeted tree
// median/trmean — it draws seeded random rounds (n, d, f, weights with
// zeros and INT64_MAX, NaN/Inf rows, budgets, sybil duplicates) and
// asserts:
//
//   * one wave (every view live until finish_stream) == aggregate(),
//     bitwise, or both throw the same exception type;
//   * several waves (each view dead once its call returns) == aggregate()
//     wherever streaming_exact() holds and the rule folds;
//   * a tree median/trmean whose budget admits the round in one tree
//     wave == aggregate();
//   * on finite input with unclamped weights, sanitize off == sanitize on.
//
// aggregate() drives the stream of an exact folding rule, so for FedAvg
// and the sketched one-shot Krum family the first two checks compare the
// stream with itself. Those rules answer to references computed without
// the stream, on the rows and weights the ingress layer admits:
//
//   * FedAvg == tensor::weighted_sum with fedavg_coefficients, bitwise;
//   * sketched krum/mkrum keep exactly MultiKrum::select's set (select
//     projects the whole batch at once, the stream one row per call) and
//     return mean_of that set up to float rounding.
//
// Registered at ZKA_THREADS 1/4/8 (tests/CMakeLists.txt): the parallel
// kernels under the rules must agree with the batch path at every pool
// size.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <exception>
#include <limits>
#include <memory>
#include <ostream>
#include <string>
#include <typeinfo>
#include <vector>

#include "defense/aggregator.h"
#include "defense/fedavg.h"
#include "defense/krum.h"
#include "defense/statistic.h"
#include "tensor/reduce.h"
#include "util/rng.h"

namespace zka::defense {
namespace {

constexpr std::size_t kTrials = 150;
constexpr std::size_t kSketchDim = 8;

struct Variant {
  const char* name;
  bool sketched;  // sketch_dim = kSketchDim
  bool budgeted;  // draw a memory budget
};

void PrintTo(const Variant& v, std::ostream* os) {
  *os << v.name << (v.sketched ? "+sketch" : "")
      << (v.budgeted ? "+budget" : "");
}

// Every factory name, then the sketched and budgeted variants.
constexpr Variant kVariants[] = {
    {"fedavg", false, false},    {"median", false, false},
    {"trmean", false, false},    {"krum", false, false},
    {"mkrum", false, false},     {"bulyan", false, false},
    {"foolsgold", false, false}, {"normclip", false, false},
    {"geomedian", false, false}, {"centeredclip", false, false},
    {"dnc", false, false},       {"krum", true, false},
    {"mkrum", true, false},      {"bulyan", true, false},
    {"median", false, true},     {"trmean", false, true},
};

struct Round {
  std::size_t dim = 0;
  std::vector<Update> updates;
  std::vector<std::int64_t> weights;
  AggregatorOptions options;
  bool finite = true;
};

Round draw_round(const Variant& v, util::Rng& rng) {
  Round r;
  // Sketching engages at n >= 8 and d > 2k; draw around that edge. One
  // round in ten is large enough (n·d up to 2^18) to cross the parallel
  // kernels' thresholds.
  const bool large = rng.uniform() < 0.1;
  const std::size_t n =
      1 + rng.uniform_index(large ? 48 : v.sketched ? 28 : 20);
  r.dim = 1 + rng.uniform_index(large ? 5000 : v.sketched ? 64 : 40);
  r.options.num_byzantine = rng.uniform_index(n / 2 + 2);
  if (v.sketched) {
    r.options.sketch_dim = kSketchDim;
    r.options.sketch_seed = rng();
    r.options.recheck_band = rng.uniform_index(6);
  }
  if (v.budgeted) {
    // Tree waves from 1 (floored to 2) to beyond n (one tree wave).
    r.options.memory_budget_bytes =
        (1 + rng.uniform_index(n + 2)) * r.dim * sizeof(float);
  }
  r.updates.assign(n, Update(r.dim));
  for (Update& u : r.updates) {
    for (float& x : u) x = static_cast<float>(rng.normal(0.0, 1.0));
  }
  // Sybils: one row copied over a few others (exact ties for the
  // distance rules).
  if (n > 2 && rng.uniform() < 0.4) {
    const std::size_t src = rng.uniform_index(n);
    for (std::size_t k = 1 + rng.uniform_index(n / 2); k > 0; --k) {
      r.updates[rng.uniform_index(n)] = r.updates[src];
    }
  }
  if (rng.uniform() < 0.3) {
    constexpr float kBad[] = {std::numeric_limits<float>::quiet_NaN(),
                              std::numeric_limits<float>::infinity(),
                              -std::numeric_limits<float>::infinity()};
    for (std::size_t k = 1 + rng.uniform_index(3); k > 0; --k) {
      Update& row = r.updates[rng.uniform_index(n)];
      row[rng.uniform_index(r.dim)] = kBad[rng.uniform_index(3)];
    }
    r.finite = false;
  }
  r.weights.resize(n);
  for (std::int64_t& w : r.weights) {
    const double p = rng.uniform();
    w = p < 0.1    ? 0
        : p < 0.15 ? std::numeric_limits<std::int64_t>::max()
                   : static_cast<std::int64_t>(1 + rng.uniform_index(100));
  }
  return r;
}

/// A rule's answer, or the dynamic type of what it threw.
struct Outcome {
  std::string thrown;
  Update model;
  std::vector<std::size_t> selected;
};

template <typename F>
Outcome capture(F&& run) {
  try {
    AggregationResult result = run();
    return {"", std::move(result.model), std::move(result.selected)};
  } catch (const std::exception& e) {
    return {typeid(e).name(), {}, {}};
  }
}

void expect_same(const Outcome& want, const Outcome& got,
                 const std::string& what) {
  EXPECT_EQ(want.thrown, got.thrown) << what;
  if (!want.thrown.empty() || !got.thrown.empty()) return;
  ASSERT_EQ(want.model.size(), got.model.size()) << what;
  // Bit patterns: NaN != NaN, and -0 == +0 would hide a change.
  EXPECT_EQ(0, std::memcmp(want.model.data(), got.model.data(),
                           want.model.size() * sizeof(float)))
      << what;
  EXPECT_EQ(want.selected, got.selected) << what;
}

Outcome batch(const Round& r, const Variant& v, bool sanitize = true) {
  return capture([&] {
    const auto agg = make_aggregator(v.name, r.options);
    agg->set_sanitize({.enabled = sanitize});
    return agg->aggregate(r.updates, r.weights);
  });
}

/// Streams the round through a fresh rule. With `one_wave`, every view
/// points at the caller's rows, live until finish_stream. Otherwise each
/// row is copied into one scratch buffer that is clobbered as soon as the
/// call returns — what a server freeing each wave does to a rule that
/// claims to fold.
Outcome stream(const Round& r, const Variant& v, bool one_wave) {
  Update scratch;
  const auto view = [&](std::size_t i) -> UpdateView {
    if (one_wave) return r.updates[i];
    scratch = r.updates[i];
    return scratch;
  };
  const auto clobber = [&] {
    if (!one_wave) scratch.assign(scratch.size(), -12345.0f);
  };
  return capture([&] {
    const auto agg = make_aggregator(v.name, r.options);
    agg->begin_stream(r.dim, r.weights);
    for (std::size_t i = 0; i < r.updates.size(); ++i) {
      agg->stream_update(view(i));
      clobber();
    }
    for (const std::size_t i : agg->stream_replay_request()) {
      agg->stream_replay(i, view(i));
      clobber();
    }
    return agg->finish_stream();
  });
}

/// The round as the ingress layer hands it to a rule, copied out of the
/// layer's scratch.
struct Admitted {
  std::vector<Update> rows;
  std::vector<std::int64_t> weights;
};

Admitted admit(const Round& r) {
  sanitize::Ingress ingress;
  const std::vector<UpdateView> views = as_views(r.updates);
  Admitted a;
  for (const UpdateView row : ingress.admit_updates(views)) {
    a.rows.emplace_back(row.begin(), row.end());
  }
  const auto weights = ingress.admit_weights(r.weights);
  a.weights.assign(weights.begin(), weights.end());
  return a;
}

/// FedAvg without the stream: one weighted_sum over the admitted rows.
Outcome fedavg_reference(const Round& r) {
  const Admitted a = admit(r);
  const std::vector<UpdateView> rows = as_views(a.rows);
  std::vector<double> acc(r.dim);
  tensor::weighted_sum(rows, fedavg_coefficients(a.weights), acc);
  Outcome out;
  for (const double x : acc) out.model.push_back(static_cast<float>(x));
  return out;
}

/// Sketched one-shot Krum/mKrum checked against the batch select() and
/// mean_of of what it selects.
void expect_matches_select(const Round& r, const Variant& v, const Outcome& got,
                           const std::string& what) {
  const Admitted a = admit(r);
  const std::vector<UpdateView> rows = as_views(a.rows);
  const auto rule = make_aggregator(v.name, r.options);
  const Outcome want = capture([&] {
    AggregationResult result;
    result.selected = dynamic_cast<const MultiKrum&>(*rule).select(rows);
    result.model = mean_of(rows, result.selected);
    return result;
  });
  EXPECT_EQ(want.thrown, got.thrown) << what;
  if (!want.thrown.empty() || !got.thrown.empty()) return;
  EXPECT_EQ(want.selected, got.selected) << what;
  ASSERT_EQ(want.model.size(), got.model.size()) << what;
  // The stream folds its mean from the running sum of all rows; mean_of
  // sums the selection. Both round one double mean to float.
  float worst = 0.0f;
  for (std::size_t j = 0; j < want.model.size(); ++j) {
    const float scale = std::max(1.0f, std::abs(want.model[j]));
    worst = std::max(worst, std::abs(want.model[j] - got.model[j]) / scale);
  }
  EXPECT_LE(worst, 1e-5f) << what;
}

class IngestDifferential : public ::testing::TestWithParam<Variant> {};

TEST_P(IngestDifferential, StreamMatchesBatch) {
  const Variant v = GetParam();
  std::uint64_t seed = 0xcbf29ce484222325ULL;  // FNV-1a of the variant
  for (const char c : std::string(v.name) + (v.sketched ? "+s" : "") +
                          (v.budgeted ? "+b" : "")) {
    seed = (seed ^ static_cast<unsigned char>(c)) * 0x100000001b3ULL;
  }
  util::Rng rng(seed);
  std::size_t compared_multi = 0;
  std::size_t sketched_rounds = 0;
  bool folds_seen = false;
  for (std::size_t trial = 0; trial < kTrials; ++trial) {
    const Round r = draw_round(v, rng);
    const std::string what = std::string(v.name) + " trial " +
                             std::to_string(trial) + " n=" +
                             std::to_string(r.updates.size()) +
                             " d=" + std::to_string(r.dim);
    const auto probe = make_aggregator(v.name, r.options);
    const bool folds = probe->supports_streaming();
    const bool exact = probe->streaming_exact();
    const bool one_tree_wave =
        v.budgeted && coord_tree_wave(r.options.memory_budget_bytes, r.dim,
                                      r.updates.size()) >= r.updates.size();
    const Outcome want = batch(r, v);
    const std::string name = v.name;
    if (name == "fedavg") {
      expect_same(fedavg_reference(r), want, what + " weighted_sum");
    }
    if (v.sketched && (name == "krum" || name == "mkrum")) {
      expect_matches_select(r, v, want, what + " select");
      const SketchOptions sketch{.sketch_dim = r.options.sketch_dim};
      if (want.thrown.empty() && sketch.enabled_for(r.updates.size(), r.dim)) {
        ++sketched_rounds;
      }
    }

    if (exact || one_tree_wave) {
      expect_same(want, stream(r, v, /*one_wave=*/true), what + " one wave");
    }
    if (folds && (exact || one_tree_wave)) {
      expect_same(want, stream(r, v, /*one_wave=*/false),
                  what + " multi-wave");
      ++compared_multi;
    }
    // Sanitize off == on wherever the ingress layer has nothing to repair.
    sanitize::Ingress ingress;
    const auto admitted = ingress.admit_weights(r.weights);
    if (r.finite && std::equal(admitted.begin(), admitted.end(),
                               r.weights.begin(), r.weights.end())) {
      expect_same(want, batch(r, v, /*sanitize=*/false),
                  what + " sanitize off");
    }
    folds_seen = folds_seen || folds;
  }
  // A folding rule must actually have been compared across waves.
  if (folds_seen) {
    EXPECT_GT(compared_multi, 0u) << v.name;
  }
  // The select() reference must have met rounds that really sketch.
  if (v.sketched && std::string(v.name) != "bulyan") {
    EXPECT_GT(sketched_rounds, 0u) << v.name;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllRules, IngestDifferential, ::testing::ValuesIn(kVariants),
    [](const ::testing::TestParamInfo<Variant>& info) {
      return std::string(info.param.name) +
             (info.param.sketched ? "_sketch" : "") +
             (info.param.budgeted ? "_budget" : "");
    });

}  // namespace
}  // namespace zka::defense
