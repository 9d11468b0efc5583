#include "fl/metrics.h"

#include <gtest/gtest.h>

#include <cmath>

#include "data/synthetic.h"
#include "nn/loss.h"

namespace zka::fl {
namespace {

TEST(Asr, FormulaMatchesEq4) {
  // acc_natk = 0.82, acc_max = 0.526 -> ASR = (0.82-0.526)/0.82 * 100.
  EXPECT_NEAR(attack_success_rate(0.82, 0.526), 35.85, 0.01);
  EXPECT_NEAR(attack_success_rate(0.5, 0.5), 0.0, 1e-12);
  EXPECT_NEAR(attack_success_rate(0.5, 0.0), 100.0, 1e-12);
}

TEST(Asr, NegativeWhenAttackHelps) {
  EXPECT_LT(attack_success_rate(0.5, 0.6), 0.0);
}

TEST(Asr, UndefinedForZeroBaseline) {
  EXPECT_TRUE(std::isnan(attack_success_rate(0.0, 0.3)));
}

TEST(Dpr, FormulaMatchesEq5) {
  EXPECT_DOUBLE_EQ(defense_pass_rate(7, 10), 70.0);
  EXPECT_DOUBLE_EQ(defense_pass_rate(0, 4), 0.0);
  EXPECT_DOUBLE_EQ(defense_pass_rate(4, 4), 100.0);
}

TEST(Dpr, UndefinedWithoutSelections) {
  EXPECT_TRUE(std::isnan(defense_pass_rate(0, 0)));
}

TEST(EvaluateAccuracy, PerfectAndChanceLevel) {
  const auto dataset =
      data::make_synthetic_dataset(models::Task::kFashion, 60, 21);
  const auto factory = models::task_model_factory(models::Task::kFashion);
  const auto params = nn::get_flat_params(*factory(5));
  const auto model = factory(0);
  const double acc = evaluate_accuracy(*model, params, dataset);
  EXPECT_GE(acc, 0.0);
  EXPECT_LE(acc, 1.0);

  data::Dataset empty;
  empty.spec = models::fashion_spec();
  empty.images = tensor::Tensor({0, 1, 28, 28});
  EXPECT_DOUBLE_EQ(evaluate_accuracy(*factory(0), params, empty), 0.0);
}

TEST(EvaluateAccuracy, BatchSizeDoesNotChangeResult) {
  const auto dataset =
      data::make_synthetic_dataset(models::Task::kFashion, 50, 22);
  const auto factory = models::task_model_factory(models::Task::kFashion);
  const auto params = nn::get_flat_params(*factory(6));
  EXPECT_DOUBLE_EQ(evaluate_accuracy(*factory(0), params, dataset, 7),
                   evaluate_accuracy(*factory(0), params, dataset, 64));
}

}  // namespace
}  // namespace zka::fl
