#include "analysis/pca.h"

#include <gtest/gtest.h>

#include <cmath>

#include "util/rng.h"

namespace zka::analysis {
namespace {

using tensor::Tensor;

TEST(Pca, RecoversDominantAxisOfAnisotropicCloud) {
  // Points spread along (1, 1)/sqrt(2) with small orthogonal noise.
  util::Rng rng(1);
  const std::int64_t n = 200;
  Tensor rows({n, 2});
  for (std::int64_t i = 0; i < n; ++i) {
    const double t = rng.normal(0.0, 3.0);
    const double s = rng.normal(0.0, 0.1);
    rows[i * 2] = static_cast<float>((t + s) / std::numbers::sqrt2);
    rows[i * 2 + 1] = static_cast<float>((t - s) / std::numbers::sqrt2);
  }
  const PcaResult result = pca_project(rows, 2);
  ASSERT_EQ(result.component_variance.size(), 2u);
  // First component carries nearly all variance.
  EXPECT_GT(result.component_variance[0],
            50.0 * result.component_variance[1]);
  EXPECT_NEAR(result.component_variance[0] + result.component_variance[1],
              result.total_variance, 0.05 * result.total_variance);
}

TEST(Pca, ProjectionShapeAndCentering) {
  util::Rng rng(2);
  const Tensor rows = Tensor::uniform({30, 7}, rng, -1.0f, 1.0f);
  const PcaResult result = pca_project(rows, 2);
  EXPECT_EQ(result.projection.shape(), (tensor::Shape{30, 2}));
  // Projections of centered data have (near) zero mean.
  for (std::int64_t c = 0; c < 2; ++c) {
    double mean = 0.0;
    for (std::int64_t i = 0; i < 30; ++i) {
      mean += result.projection[i * 2 + c];
    }
    EXPECT_NEAR(mean / 30.0, 0.0, 1e-3);
  }
}

TEST(Pca, ComponentsOrderedByVariance) {
  util::Rng rng(3);
  Tensor rows({50, 4});
  for (std::int64_t i = 0; i < 50; ++i) {
    rows[i * 4] = static_cast<float>(rng.normal(0.0, 5.0));
    rows[i * 4 + 1] = static_cast<float>(rng.normal(0.0, 2.0));
    rows[i * 4 + 2] = static_cast<float>(rng.normal(0.0, 0.5));
    rows[i * 4 + 3] = static_cast<float>(rng.normal(0.0, 0.1));
  }
  const PcaResult result = pca_project(rows, 3);
  EXPECT_GT(result.component_variance[0], result.component_variance[1]);
  EXPECT_GT(result.component_variance[1], result.component_variance[2]);
}

TEST(Pca, FlattensHighRankSamples) {
  util::Rng rng(4);
  const Tensor rows = Tensor::uniform({10, 2, 3, 3}, rng, -1.0f, 1.0f);
  const PcaResult result = pca_project(rows, 2);
  EXPECT_EQ(result.projection.shape(), (tensor::Shape{10, 2}));
}

TEST(Pca, Validation) {
  EXPECT_THROW(pca_project(Tensor({1, 5}), 1), std::invalid_argument);
  EXPECT_THROW(pca_project(Tensor({5}), 1), std::invalid_argument);
  EXPECT_THROW(pca_project(Tensor({5, 3}), 0), std::invalid_argument);
  EXPECT_THROW(pca_project(Tensor({5, 3}), 4), std::invalid_argument);
}

TEST(Pca, DegenerateConstantDataGivesZeroVariance) {
  const Tensor rows({6, 3}, 2.5f);
  const PcaResult result = pca_project(rows, 2);
  EXPECT_NEAR(result.total_variance, 0.0, 1e-9);
  EXPECT_NEAR(result.component_variance[0], 0.0, 1e-9);
}

TEST(MeanFeatureVariance, HandComputedCase) {
  // Two features: variance 2 and 0 -> mean 1.
  const Tensor rows({3, 2},
                    std::vector<float>{1.0f, 5.0f, 3.0f, 5.0f, -1.0f, 5.0f});
  EXPECT_NEAR(mean_feature_variance(rows), 2.0, 1e-6);
}

TEST(MeanFeatureVariance, ScalesQuadratically) {
  util::Rng rng(5);
  Tensor rows = Tensor::normal({100, 8}, rng);
  const double v1 = mean_feature_variance(rows);
  for (float& x : rows.data()) x *= 3.0f;
  EXPECT_NEAR(mean_feature_variance(rows), 9.0 * v1, 0.01 * 9.0 * v1);
}

TEST(MeanFeatureVariance, Validation) {
  EXPECT_THROW(mean_feature_variance(Tensor({1, 4})), std::invalid_argument);
}

}  // namespace
}  // namespace zka::analysis
