// Extension defenses: geometric median, centered clipping, FLTrust.
#include <gtest/gtest.h>

#include <cmath>

#include "data/synthetic.h"
#include "defense/centered_clip.h"
#include "defense/fltrust.h"
#include "defense/geometric_median.h"
#include "nn/loss.h"
#include "nn/module.h"
#include "nn/sgd.h"
#include "util/rng.h"
#include "util/stats.h"

namespace zka::defense {
namespace {

std::vector<std::int64_t> unit_weights(std::size_t n) {
  return std::vector<std::int64_t>(n, 1);
}

// ---------- Geometric median ----------

TEST(GeoMedianRule, MatchesMedianInOneDimension) {
  GeometricMedian gm;
  const std::vector<Update> updates{{1.0f}, {2.0f}, {100.0f}};
  const auto result = gm.aggregate(updates, unit_weights(3));
  // The 1-D geometric median is the (coordinate) median.
  EXPECT_NEAR(result.model[0], 2.0f, 0.05f);
}

TEST(GeoMedianRule, RobustToMinorityOutliers) {
  GeometricMedian gm;
  util::Rng rng(1);
  std::vector<Update> updates;
  for (int i = 0; i < 7; ++i) {
    Update u(16);
    for (auto& x : u) x = static_cast<float>(rng.normal(0.0, 0.1));
    updates.push_back(std::move(u));
  }
  for (int i = 0; i < 3; ++i) updates.push_back(Update(16, 1000.0f));
  const auto result = gm.aggregate(updates, unit_weights(10));
  EXPECT_LT(util::l2_norm(result.model), 2.0);
}

TEST(GeoMedianRule, ExactOnSymmetricConfiguration) {
  GeometricMedian gm;
  // Four points symmetric around (1, 1): geometric median = (1, 1).
  const std::vector<Update> updates{
      {0.0f, 1.0f}, {2.0f, 1.0f}, {1.0f, 0.0f}, {1.0f, 2.0f}};
  const auto result = gm.aggregate(updates, unit_weights(4));
  EXPECT_NEAR(result.model[0], 1.0f, 1e-3f);
  EXPECT_NEAR(result.model[1], 1.0f, 1e-3f);
}

TEST(GeoMedianRule, ConvergesQuickly) {
  GeometricMedian gm(100, 1e-8);
  util::Rng rng(2);
  std::vector<Update> updates(9, Update(8));
  for (auto& u : updates) {
    for (auto& x : u) x = static_cast<float>(rng.normal(0.0, 1.0));
  }
  gm.aggregate(updates, unit_weights(9));
  EXPECT_LT(gm.last_iterations(), 100);
}

// ---------- Centered clipping ----------

TEST(CenteredClipRule, FirstRoundSeedsFromMedian) {
  CenteredClipping cc;
  const std::vector<Update> updates{{1.0f}, {2.0f}, {3.0f}};
  const auto result = cc.aggregate(updates, unit_weights(3));
  // Center = median = 2; all deviations within tau=median norm -> mean.
  EXPECT_NEAR(result.model[0], 2.0f, 0.5f);
}

TEST(CenteredClipRule, StateDampsSingleRoundOutlier) {
  CenteredClipping cc;
  // Round 1: clean cluster around 1.0.
  const std::vector<Update> clean{{0.9f}, {1.0f}, {1.1f}};
  cc.aggregate(clean, unit_weights(3));
  // Round 2: an attacker fires a huge update.
  const std::vector<Update> attacked{{1.0f}, {1.05f}, {1e6f}};
  const auto result = cc.aggregate(attacked, unit_weights(3));
  EXPECT_LT(result.model[0], 2.0f);
  EXPECT_GT(result.model[0], 0.5f);
}

TEST(CenteredClipRule, FixedTauRespected) {
  CenteredClipping cc(0.1);
  const std::vector<Update> updates{{0.0f}, {0.0f}, {100.0f}};
  cc.aggregate(updates, unit_weights(3));
  EXPECT_DOUBLE_EQ(cc.last_tau(), 0.1);
}

TEST(CenteredClipRule, TracksDriftingHonestFederation) {
  CenteredClipping cc;
  Update honest{0.0f};
  for (int round = 0; round < 20; ++round) {
    honest[0] += 0.1f;
    const std::vector<Update> updates{{honest[0] - 0.01f},
                                      {honest[0]},
                                      {honest[0] + 0.01f}};
    const auto result = cc.aggregate(updates, unit_weights(3));
    EXPECT_NEAR(result.model[0], honest[0], 0.15f) << "round " << round;
  }
}

// ---------- FLTrust ----------

class FlTrustTest : public ::testing::Test {
 protected:
  void SetUp() override {
    factory_ = models::task_model_factory(models::Task::kFashion);
    root_ = data::make_synthetic_dataset(models::Task::kFashion, 64, 33);
    global_ = nn::get_flat_params(*factory_(5));
  }

  FlTrust make() {
    return FlTrust(root_, factory_, {}, 11);
  }

  /// A plausible benign update: short local training on fresh data.
  Update benign_update(std::uint64_t seed) {
    const auto shard =
        data::make_synthetic_dataset(models::Task::kFashion, 24, seed);
    auto model = factory_(seed);
    nn::set_flat_params(*model, global_);
    // One crude gradient step toward the data.
    nn::SoftmaxCrossEntropy loss;
    nn::Sgd opt(*model, 0.05f);
    opt.zero_grad();
    loss.forward(model->forward(shard.images), shard.labels);
    model->backward(loss.backward());
    opt.step();
    return nn::get_flat_params(*model);
  }

  models::ModelFactory factory_;
  data::Dataset root_;
  Update global_;
};

TEST_F(FlTrustTest, EmptyRootRejected) {
  data::Dataset empty;
  empty.spec = models::fashion_spec();
  empty.images = tensor::Tensor({0, 1, 28, 28});
  EXPECT_THROW(FlTrust(empty, factory_, {}, 1), std::invalid_argument);
}

TEST_F(FlTrustTest, AggregateWithoutBeginRoundThrows) {
  FlTrust trust = make();
  const std::vector<Update> updates{global_, global_};
  EXPECT_THROW(trust.aggregate(updates, unit_weights(2)), std::logic_error);
}

TEST_F(FlTrustTest, TrustsAlignedUpdatesAndDropsReversedOnes) {
  FlTrust trust = make();
  trust.begin_round(global_, 0);

  std::vector<Update> updates;
  for (std::uint64_t s = 0; s < 4; ++s) updates.push_back(benign_update(s));
  // A reversed update: global - (benign - global), i.e. anti-aligned.
  Update reversed(global_.size());
  for (std::size_t i = 0; i < global_.size(); ++i) {
    reversed[i] = 2.0f * global_[i] - updates[0][i];
  }
  updates.push_back(reversed);

  const auto result = trust.aggregate(updates, unit_weights(5));
  const auto& scores = trust.last_trust_scores();
  ASSERT_EQ(scores.size(), 5u);
  // The anti-aligned update must get (near-)zero trust; benign ones more.
  double benign_mean = 0.0;
  for (int k = 0; k < 4; ++k) benign_mean += scores[k] / 4.0;
  EXPECT_GT(benign_mean, scores[4] + 0.1);
  for (const auto idx : result.selected) EXPECT_LT(idx, 5u);
  EXPECT_TRUE(trust.selects_clients());
}

TEST_F(FlTrustTest, AllDistrustedLeavesModelUnchanged) {
  FlTrust trust = make();
  trust.begin_round(global_, 0);
  // Every client anti-aligned.
  Update reversed(global_.size());
  const Update b = benign_update(9);
  for (std::size_t i = 0; i < global_.size(); ++i) {
    reversed[i] = 2.0f * global_[i] - b[i];
  }
  const std::vector<Update> updates(3, reversed);
  const auto result = trust.aggregate(updates, unit_weights(3));
  EXPECT_TRUE(result.selected.empty());
  EXPECT_EQ(result.model, global_);
}

TEST_F(FlTrustTest, NormalizationBoundsScaledContributions) {
  FlTrust trust = make();
  trust.begin_round(global_, 0);
  // A hugely scaled benign-direction update must not dominate: FLTrust
  // rescales every accepted delta to the server delta's norm.
  Update big(global_.size());
  const Update b = benign_update(3);
  for (std::size_t i = 0; i < global_.size(); ++i) {
    big[i] = global_[i] + 1000.0f * (b[i] - global_[i]);
  }
  const std::vector<Update> updates{b, big};
  const auto result = trust.aggregate(updates, unit_weights(2));
  EXPECT_LT(util::l2_distance(result.model, global_), 10.0);
}

}  // namespace
}  // namespace zka::defense
