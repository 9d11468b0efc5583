// Property-style checks that hold for every aggregation rule.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>

#include "defense/aggregator.h"
#include "util/rng.h"

namespace zka::defense {
namespace {

struct Case {
  const char* name;
  std::size_t f;
};

class DefenseProperty : public ::testing::TestWithParam<Case> {
 protected:
  std::unique_ptr<Aggregator> make() const {
    return make_aggregator(GetParam().name, {.num_byzantine = GetParam().f});
  }
};

std::vector<Update> random_updates(std::size_t n, std::size_t dim,
                                   std::uint64_t seed, double spread = 1.0) {
  util::Rng rng(seed);
  std::vector<Update> updates(n, Update(dim));
  for (auto& u : updates) {
    for (auto& x : u) x = static_cast<float>(rng.normal(0.0, spread));
  }
  return updates;
}

TEST_P(DefenseProperty, IdenticalUpdatesAggregateToThemselves) {
  auto agg = make();
  const Update u{1.5f, -2.0f, 0.25f};
  const std::vector<Update> updates(7, u);
  const auto result = agg->aggregate(updates, std::vector<std::int64_t>(7, 1));
  ASSERT_EQ(result.model.size(), u.size());
  for (std::size_t i = 0; i < u.size(); ++i) {
    EXPECT_NEAR(result.model[i], u[i], 1e-5) << agg->name();
  }
}

TEST_P(DefenseProperty, OutputWithinCoordinatewiseEnvelope) {
  auto agg = make();
  const auto updates = random_updates(9, 16, 7);
  const auto result =
      agg->aggregate(updates, std::vector<std::int64_t>(9, 1));
  for (std::size_t i = 0; i < 16; ++i) {
    float lo = updates[0][i];
    float hi = updates[0][i];
    for (const auto& u : updates) {
      lo = std::min(lo, u[i]);
      hi = std::max(hi, u[i]);
    }
    EXPECT_GE(result.model[i], lo - 1e-5f) << agg->name() << " coord " << i;
    EXPECT_LE(result.model[i], hi + 1e-5f) << agg->name() << " coord " << i;
  }
}

TEST_P(DefenseProperty, DeterministicAcrossCalls) {
  auto agg1 = make();
  auto agg2 = make();
  const auto updates = random_updates(8, 12, 11);
  const std::vector<std::int64_t> w(8, 1);
  EXPECT_EQ(agg1->aggregate(updates, w).model,
            agg2->aggregate(updates, w).model);
}

TEST_P(DefenseProperty, SelectionIndicesAreValidAndUnique) {
  auto agg = make();
  const auto updates = random_updates(10, 8, 13);
  const auto result =
      agg->aggregate(updates, std::vector<std::int64_t>(10, 1));
  std::vector<bool> seen(10, false);
  for (const auto idx : result.selected) {
    ASSERT_LT(idx, 10u) << agg->name();
    EXPECT_FALSE(seen[idx]) << agg->name() << " selected twice";
    seen[idx] = true;
  }
  if (!agg->selects_clients()) {
    EXPECT_TRUE(result.selected.empty()) << agg->name();
  } else {
    EXPECT_FALSE(result.selected.empty()) << agg->name();
  }
}

TEST_P(DefenseProperty, NonFiniteUpdatesSanitizedAtIngress) {
  // A single crafted NaN/Inf coordinate must never reach a rule: the
  // ingress layer (on by default) zeroes it, so every defense still
  // produces a finite model from a poisoned batch.
  auto agg = make();
  auto updates = random_updates(6, 10, 23);
  updates[3][7] = std::numeric_limits<float>::quiet_NaN();
  updates[5][2] = std::numeric_limits<float>::infinity();
  const std::vector<std::int64_t> w(6, 1);
  const auto result = agg->aggregate(updates, w);
  for (const float v : result.model) {
    EXPECT_TRUE(std::isfinite(v)) << agg->name();
  }
  EXPECT_GE(agg->ingress().zeroed_values(), 2u) << agg->name();
}

TEST_P(DefenseProperty, SanitizeOffIsPaperFaithful) {
  // With the ingress layer switched off the server is the undefended one
  // from the paper: nothing throws, and for the plain mean the poison
  // propagates — the hazard the ingress layer exists to contain.
  auto agg = make();
  agg->set_sanitize({.enabled = false});
  auto updates = random_updates(6, 10, 23);
  updates[3][7] = std::numeric_limits<float>::quiet_NaN();
  const auto result = agg->aggregate(updates, std::vector<std::int64_t>(6, 1));
  EXPECT_EQ(agg->ingress().zeroed_values(), 0u) << agg->name();
  if (std::string(GetParam().name) == "fedavg") {
    EXPECT_TRUE(std::isnan(result.model[7]));
  }
}

TEST_P(DefenseProperty, RejectsMalformedRound) {
  // The shape contract (validate_updates) holds before any rule reads a
  // row: a ragged row, a weight count that disagrees with the update
  // count, and a negative weight are each rejected.
  const auto updates = random_updates(6, 10, 29);
  const std::vector<std::int64_t> w(6, 1);
  auto ragged = updates;
  ragged[4].pop_back();
  EXPECT_THROW(make()->aggregate(ragged, w), std::invalid_argument)
      << GetParam().name << ": ragged row";
  EXPECT_THROW(make()->aggregate(updates, std::vector<std::int64_t>(5, 1)),
               std::invalid_argument)
      << GetParam().name << ": weight count";
  auto negative = w;
  negative[2] = -1;
  EXPECT_THROW(make()->aggregate(updates, negative), std::invalid_argument)
      << GetParam().name << ": negative weight";
}

TEST_P(DefenseProperty, OutputFinite) {
  auto agg = make();
  const auto updates = random_updates(6, 10, 17, 100.0);
  const auto result =
      agg->aggregate(updates, std::vector<std::int64_t>(6, 1));
  for (const float v : result.model) EXPECT_TRUE(std::isfinite(v));
}

INSTANTIATE_TEST_SUITE_P(
    AllDefenses, DefenseProperty,
    ::testing::Values(Case{"fedavg", 0}, Case{"median", 0}, Case{"trmean", 2},
                      Case{"krum", 2}, Case{"mkrum", 2}, Case{"bulyan", 2},
                      Case{"foolsgold", 0}, Case{"normclip", 0},
                      Case{"geomedian", 0}, Case{"centeredclip", 0},
                      Case{"dnc", 2}),
    [](const ::testing::TestParamInfo<Case>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace zka::defense
