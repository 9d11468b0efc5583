// Distance regularizer (Eq. 3) and adversarial trainer unit tests.
#include <gtest/gtest.h>

#include <cmath>

#include "core/adversarial_trainer.h"
#include "core/distance_reg.h"
#include "models/models.h"
#include "nn/linear.h"
#include "nn/loss.h"
#include "util/rng.h"
#include "util/stats.h"

namespace zka::core {
namespace {

TEST(DistanceReg, ValueMatchesDefinition) {
  const std::vector<float> w{1.0f, 2.0f};
  const std::vector<float> global{1.0f, 0.0f};
  const std::vector<float> prev{0.0f, 0.0f};
  // ||w - g|| = 2, ||g - prev|| = 1.
  EXPECT_NEAR(DistanceRegularizer::value(w, global, prev), 1.0, 1e-6);
}

TEST(DistanceReg, ValueZeroWhenDriftMatchesHistory) {
  const std::vector<float> w{2.0f, 0.0f};
  const std::vector<float> global{1.0f, 0.0f};
  const std::vector<float> prev{0.0f, 0.0f};
  EXPECT_NEAR(DistanceRegularizer::value(w, global, prev), 0.0, 1e-6);
}

TEST(DistanceReg, SizeMismatchThrows) {
  const std::vector<float> a{1.0f};
  const std::vector<float> b{1.0f, 2.0f};
  EXPECT_THROW(DistanceRegularizer::value(a, b, b), std::invalid_argument);
}

TEST(DistanceReg, GradientMatchesFiniteDifference) {
  util::Rng rng(1);
  nn::Sequential net;
  net.emplace<nn::Linear>(3, 2, rng);
  const std::vector<float> w0 = nn::get_flat_params(net);
  std::vector<float> global = w0;
  for (auto& g : global) g += 0.3f;
  std::vector<float> prev = global;
  for (auto& p : prev) p -= 0.1f;

  const double lambda = 0.7;
  DistanceRegularizer reg(lambda);
  net.zero_grad();
  std::vector<float> scratch;
  const double value = reg.apply(net, global, prev, scratch);
  EXPECT_NEAR(value,
              lambda * DistanceRegularizer::value(w0, global, prev), 1e-5);

  const auto grads = nn::get_flat_grads(net);
  const double eps = 1e-3;
  for (std::size_t i = 0; i < w0.size(); i += 2) {
    std::vector<float> plus = w0;
    std::vector<float> minus = w0;
    plus[i] += static_cast<float>(eps);
    minus[i] -= static_cast<float>(eps);
    const double numeric =
        lambda *
        (DistanceRegularizer::value(plus, global, prev) -
         DistanceRegularizer::value(minus, global, prev)) /
        (2.0 * eps);
    EXPECT_NEAR(grads[i], numeric, 1e-3) << "coordinate " << i;
  }
}

TEST(DistanceReg, ZeroLambdaIsNoOp) {
  util::Rng rng(2);
  nn::Sequential net;
  net.emplace<nn::Linear>(2, 2, rng);
  net.zero_grad();
  const std::vector<float> global(static_cast<std::size_t>(nn::num_params(net)),
                                  1.0f);
  DistanceRegularizer reg(0.0);
  std::vector<float> scratch;
  EXPECT_DOUBLE_EQ(reg.apply(net, global, global, scratch), 0.0);
  for (const float g : nn::get_flat_grads(net)) EXPECT_FLOAT_EQ(g, 0.0f);
}

TEST(DistanceReg, NoGradientAtZeroDistance) {
  // w == w(t): the norm is non-differentiable there; apply() must not
  // produce NaNs or any gradient.
  util::Rng rng(3);
  nn::Sequential net;
  net.emplace<nn::Linear>(2, 2, rng);
  net.zero_grad();
  const std::vector<float> global = nn::get_flat_params(net);
  DistanceRegularizer reg(1.0);
  std::vector<float> scratch;
  const double v = reg.apply(net, global, global, scratch);
  EXPECT_TRUE(std::isfinite(v));
  for (const float g : nn::get_flat_grads(net)) EXPECT_FLOAT_EQ(g, 0.0f);
}

// ---------- AdversarialTrainer ----------

TEST(AdversarialTrainer, PullsPredictionsTowardDecoyLabel) {
  util::Rng rng(4);
  const auto factory = zka::models::task_model_factory(zka::models::Task::kFashion);
  auto model = factory(10);
  const std::vector<float> global = nn::get_flat_params(*model);

  const tensor::Tensor images =
      tensor::Tensor::uniform({16, 1, 28, 28}, rng, -1.0f, 1.0f);
  const std::int64_t decoy = 4;
  const std::vector<std::int64_t> decoys(16, decoy);

  nn::SoftmaxCrossEntropy ce;
  const double before = ce.forward(model->forward(images), decoys);

  AdversarialTrainer trainer({.epochs = 5, .batch_size = 8,
                              .learning_rate = 0.05f, .lambda = 0.0});
  const auto losses =
      trainer.train(*model, images, decoy, global, global, rng);
  EXPECT_EQ(losses.size(), 5u);
  const double after = ce.forward(model->forward(images), decoys);
  EXPECT_LT(after, before);
  // Loss trajectory must be decreasing overall.
  EXPECT_LT(losses.back(), losses.front());
}

TEST(AdversarialTrainer, RegularizerKeepsUpdateCloser) {
  util::Rng rng_a(5);
  util::Rng rng_b(5);
  const auto factory = zka::models::task_model_factory(zka::models::Task::kFashion);
  const tensor::Tensor images =
      tensor::Tensor::uniform({16, 1, 28, 28}, rng_a, -1.0f, 1.0f);

  auto run = [&](double lambda, util::Rng& rng) {
    auto model = factory(10);
    const std::vector<float> global = nn::get_flat_params(*model);
    // Pretend the global model barely moved last round.
    std::vector<float> prev = global;
    prev[0] += 0.01f;
    AdversarialTrainer trainer({.epochs = 8, .batch_size = 8,
                                .learning_rate = 0.1f, .lambda = lambda});
    trainer.train(*model, images, 2, global, prev, rng);
    return util::l2_distance(nn::get_flat_params(*model), global);
  };
  const double dist_plain = run(0.0, rng_a);
  const double dist_reg = run(1.0, rng_b);
  EXPECT_LT(dist_reg, dist_plain);
}

TEST(AdversarialTrainer, RejectsBadImages) {
  util::Rng rng(6);
  const auto factory = zka::models::task_model_factory(zka::models::Task::kFashion);
  auto model = factory(1);
  const std::vector<float> global = nn::get_flat_params(*model);
  AdversarialTrainer trainer({});
  EXPECT_THROW(trainer.train(*model, tensor::Tensor({4, 4}), 0, global,
                             global, rng),
               std::invalid_argument);
  EXPECT_THROW(trainer.train(*model, tensor::Tensor({0, 1, 28, 28}), 0,
                             global, global, rng),
               std::invalid_argument);
}

}  // namespace
}  // namespace zka::core
