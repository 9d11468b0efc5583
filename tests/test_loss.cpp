#include "nn/loss.h"

#include <gtest/gtest.h>

#include <cmath>

#include "util/rng.h"

namespace zka::nn {
namespace {

using tensor::Tensor;

TEST(Softmax, RowsSumToOneAndOrderPreserved) {
  Tensor logits({2, 3}, std::vector<float>{1, 2, 3, -1, -2, -3});
  const Tensor p = softmax_rows(logits);
  for (std::int64_t r = 0; r < 2; ++r) {
    double sum = 0.0;
    for (std::int64_t c = 0; c < 3; ++c) sum += p[r * 3 + c];
    EXPECT_NEAR(sum, 1.0, 1e-6);
  }
  EXPECT_GT(p[2], p[1]);
  EXPECT_GT(p[1], p[0]);
  EXPECT_GT(p[3], p[4]);
}

TEST(Softmax, NumericallyStableForLargeLogits) {
  Tensor logits({1, 2}, std::vector<float>{1000.0f, 990.0f});
  const Tensor p = softmax_rows(logits);
  EXPECT_FALSE(std::isnan(p[0]));
  EXPECT_NEAR(p[0], 1.0 / (1.0 + std::exp(-10.0)), 1e-5);
}

TEST(Softmax, RequiresRank2) {
  EXPECT_THROW(softmax_rows(Tensor({4})), std::invalid_argument);
}

TEST(CrossEntropy, HandComputedHardLabel) {
  Tensor logits({1, 3}, std::vector<float>{0.0f, 0.0f, 0.0f});
  SoftmaxCrossEntropy loss;
  const std::vector<std::int64_t> label{1};
  EXPECT_NEAR(loss.forward(logits, label), std::log(3.0), 1e-6);
}

TEST(CrossEntropy, PerfectPredictionHasLowLoss) {
  Tensor logits({1, 3}, std::vector<float>{0.0f, 20.0f, 0.0f});
  SoftmaxCrossEntropy loss;
  const std::vector<std::int64_t> label{1};
  EXPECT_LT(loss.forward(logits, label), 1e-6);
}

TEST(CrossEntropy, MeanOverBatch) {
  Tensor logits({2, 2}, std::vector<float>{0, 0, 0, 0});
  SoftmaxCrossEntropy loss;
  const std::vector<std::int64_t> labels{0, 1};
  EXPECT_NEAR(loss.forward(logits, labels), std::log(2.0), 1e-6);
}

TEST(CrossEntropy, GradientIsProbsMinusTargetsOverN) {
  Tensor logits({2, 3}, std::vector<float>{1, 2, 3, 0, 0, 0});
  SoftmaxCrossEntropy loss;
  const std::vector<std::int64_t> labels{2, 0};
  loss.forward(logits, labels);
  const Tensor grad = loss.backward();
  const Tensor p = softmax_rows(logits);
  EXPECT_NEAR(grad[0], p[0] / 2.0f, 1e-6);
  EXPECT_NEAR(grad[2], (p[2] - 1.0f) / 2.0f, 1e-6);
  EXPECT_NEAR(grad[3], (p[3] - 1.0f) / 2.0f, 1e-6);
}

TEST(CrossEntropy, SoftTargetUniformMatchesZkaRObjective) {
  // ZKA-R's ambiguity target: uniform distribution over classes.
  Tensor logits({1, 4}, std::vector<float>{0, 0, 0, 0});
  Tensor uniform({1, 4}, 0.25f);
  SoftmaxCrossEntropy loss;
  // Uniform logits against uniform target: CE = H(uniform) = log 4, and
  // gradient must vanish (loss is at its minimum).
  EXPECT_NEAR(loss.forward(logits, uniform), std::log(4.0), 1e-6);
  const Tensor grad = loss.backward();
  for (std::int64_t i = 0; i < 4; ++i) EXPECT_NEAR(grad[i], 0.0f, 1e-7);
}

TEST(CrossEntropy, GradientMatchesFiniteDifference) {
  util::Rng rng(3);
  Tensor logits = Tensor::uniform({3, 5}, rng, -1.0f, 1.0f);
  const std::vector<std::int64_t> labels{0, 3, 4};
  SoftmaxCrossEntropy loss;
  loss.forward(logits, labels);
  const Tensor grad = loss.backward();
  const double eps = 1e-3;
  for (std::int64_t i = 0; i < logits.numel(); i += 2) {
    Tensor plus = logits;
    Tensor minus = logits;
    plus[i] += static_cast<float>(eps);
    minus[i] -= static_cast<float>(eps);
    SoftmaxCrossEntropy l2;
    const double numeric =
        (l2.forward(plus, labels) - l2.forward(minus, labels)) / (2 * eps);
    EXPECT_NEAR(grad[i], numeric, 1e-4) << "logit " << i;
  }
}

TEST(CrossEntropy, NegativeScaleFlipsGradient) {
  // scale = -1 turns descent into ascent: ZKA-G's maximization trick.
  Tensor logits({1, 3}, std::vector<float>{0.5f, -0.2f, 0.1f});
  const std::vector<std::int64_t> label{1};
  SoftmaxCrossEntropy min_loss(1.0f);
  SoftmaxCrossEntropy max_loss(-1.0f);
  min_loss.forward(logits, label);
  max_loss.forward(logits, label);
  const Tensor g_min = min_loss.backward();
  const Tensor g_max = max_loss.backward();
  for (std::int64_t i = 0; i < 3; ++i) {
    EXPECT_NEAR(g_max[i], -g_min[i], 1e-7);
  }
  EXPECT_LT(max_loss.forward(logits, label), 0.0);
}

TEST(CrossEntropy, LabelOutOfRangeThrows) {
  Tensor logits({1, 3});
  SoftmaxCrossEntropy loss;
  const std::vector<std::int64_t> bad{3};
  EXPECT_THROW(loss.forward(logits, bad), std::invalid_argument);
  const std::vector<std::int64_t> negative{-1};
  EXPECT_THROW(loss.forward(logits, negative), std::invalid_argument);
}

TEST(CrossEntropy, BackwardBeforeForwardThrows) {
  SoftmaxCrossEntropy loss;
  EXPECT_THROW(loss.backward(), std::logic_error);
}

TEST(CorrectPredictions, CountsArgmaxHits) {
  Tensor logits({3, 2}, std::vector<float>{2, 1, 0, 5, 1, 0});
  const std::vector<std::int64_t> labels{0, 1, 1};
  EXPECT_EQ(correct_predictions(logits, labels), 2);
}

TEST(CorrectPredictions, TakesEachRowsArgmax) {
  Tensor logits({2, 3}, std::vector<float>{0, 5, 1, 9, 2, 3});
  const std::vector<std::int64_t> argmax{1, 0};
  EXPECT_EQ(correct_predictions(logits, argmax), 2);
  const std::vector<std::int64_t> one{0};
  EXPECT_THROW(correct_predictions(Tensor({3}), one), std::invalid_argument);
}

}  // namespace
}  // namespace zka::nn
