#include "nn/sgd.h"

#include <gtest/gtest.h>

#include <vector>

#include "nn/linear.h"
#include "nn/sequential.h"
#include "util/rng.h"

namespace zka::nn {
namespace {

// Sets every gradient of `layer` to a distinct value and returns the
// parameters and gradients it holds before a step.
struct Snapshot {
  std::vector<float> values;
  std::vector<float> grads;
};

Snapshot seed_gradients(Linear& layer) {
  Snapshot s;
  float g = -1.0f;
  for (Parameter* p : layer.parameters()) {
    for (std::int64_t i = 0; i < p->grad.numel(); ++i) {
      p->grad[i] = g;
      g += 0.25f;
      s.values.push_back(p->value[i]);
      s.grads.push_back(p->grad[i]);
    }
  }
  return s;
}

TEST(Sgd, VanillaStep) {
  util::Rng rng(1);
  Linear layer(3, 2, rng);
  const Snapshot before = seed_gradients(layer);
  Sgd opt(layer, 0.1f);
  opt.step();
  std::size_t k = 0;
  for (Parameter* p : layer.parameters()) {
    for (std::int64_t i = 0; i < p->value.numel(); ++i, ++k) {
      EXPECT_EQ(p->value[i], before.values[k] - 0.1f * before.grads[k]);
    }
  }
  EXPECT_EQ(k, 3u * 2u + 2u);
}

TEST(Sgd, ZeroGradClearsAll) {
  util::Rng rng(2);
  Linear layer(3, 2, rng);
  seed_gradients(layer);
  Sgd opt(layer, 0.1f);
  opt.zero_grad();
  for (Parameter* p : layer.parameters()) {
    for (std::int64_t i = 0; i < p->grad.numel(); ++i) {
      EXPECT_EQ(p->grad[i], 0.0f);
    }
  }
}

TEST(Sgd, TrainingReducesLossOnToyRegression) {
  // One linear layer learning y = sum(x) via half-square loss.
  util::Rng rng(4);
  Sequential net;
  net.emplace<Linear>(3, 1, rng);
  Sgd opt(net, 0.05f);

  const tensor::Tensor x = tensor::Tensor::uniform({16, 3}, rng, -1.0f, 1.0f);
  tensor::Tensor target({16, 1});
  for (std::int64_t i = 0; i < 16; ++i) {
    target[i] = x[i * 3] + x[i * 3 + 1] + x[i * 3 + 2];
  }
  auto loss_of = [&] {
    const tensor::Tensor y = net.forward(x);
    double acc = 0.0;
    for (std::int64_t i = 0; i < 16; ++i) {
      const double d = y[i] - target[i];
      acc += 0.5 * d * d;
    }
    return acc;
  };
  const double before = loss_of();
  tensor::Tensor grad({16, 1});
  for (int step = 0; step < 50; ++step) {
    opt.zero_grad();
    const tensor::Tensor& y = net.forward(x);
    for (std::int64_t i = 0; i < 16; ++i) grad[i] = y[i] - target[i];
    net.backward(grad);
    opt.step();
  }
  EXPECT_LT(loss_of(), before * 0.05);
}

}  // namespace
}  // namespace zka::nn
