#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <sstream>
#include <span>

#include "grad_check.h"
#include "models/models.h"
#include "nn/activations.h"
#include "nn/conv2d.h"
#include "nn/flatten.h"
#include "nn/linear.h"
#include "nn/pooling.h"
#include "nn/sequential.h"
#include "util/rng.h"

namespace zka::nn {
namespace {

using tensor::Tensor;

Tensor random_input(tensor::Shape shape, std::uint64_t seed) {
  util::Rng rng(seed);
  return Tensor::uniform(std::move(shape), rng, -1.0f, 1.0f);
}

bool same_bits(std::span<const float> a, std::span<const float> b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size_bytes()) == 0;
}

// ---------- Linear ----------

TEST(Linear, ForwardShapeAndBias) {
  util::Rng rng(1);
  Linear layer(4, 3, rng);
  const Tensor y = layer.forward(random_input({5, 4}, 2));
  EXPECT_EQ(y.shape(), (tensor::Shape{5, 3}));
  EXPECT_THROW(layer.forward(Tensor({5, 7})), std::invalid_argument);
}

TEST(Linear, KnownComputation) {
  util::Rng rng(1);
  Linear layer(2, 1, rng);
  auto params = layer.parameters();
  params[0]->value[0] = 2.0f;  // w00
  params[0]->value[1] = -1.0f; // w01
  params[1]->value[0] = 0.5f;  // bias
  const Tensor x({1, 2}, std::vector<float>{3.0f, 4.0f});
  const Tensor y = layer.forward(x);
  EXPECT_FLOAT_EQ(y[0], 2.0f * 3.0f - 4.0f + 0.5f);
}

TEST(Linear, InputGradient) {
  util::Rng rng(3);
  Linear layer(6, 4, rng);
  test::check_input_gradient(layer, random_input({3, 6}, 4));
}

TEST(Linear, ParameterGradients) {
  util::Rng rng(5);
  Linear layer(5, 3, rng);
  test::check_param_gradients(layer, random_input({4, 5}, 6));
}

TEST(Linear, GradientsAccumulateAcrossBackwardCalls) {
  util::Rng rng(7);
  Linear layer(2, 2, rng);
  const Tensor x = random_input({2, 2}, 8);
  const Tensor y = layer.forward(x);
  layer.zero_grad();
  layer.backward(y);
  const auto g1 = get_flat_grads(layer);
  layer.forward(x);
  layer.backward(y);
  const auto g2 = get_flat_grads(layer);
  for (std::size_t i = 0; i < g1.size(); ++i) {
    EXPECT_NEAR(g2[i], 2.0f * g1[i], 1e-4f);
  }
}

// ---------- Conv2d ----------

TEST(Conv2d, ForwardShape) {
  util::Rng rng(9);
  Conv2d conv(3, 8, 3, 1, 1, rng);
  const Tensor y = conv.forward(random_input({2, 3, 10, 10}, 10));
  EXPECT_EQ(y.shape(), (tensor::Shape{2, 8, 10, 10}));
}

TEST(Conv2d, StridedShape) {
  util::Rng rng(11);
  Conv2d conv(1, 4, 4, 2, 1, rng);
  const Tensor y = conv.forward(random_input({1, 1, 8, 8}, 12));
  EXPECT_EQ(y.shape(), (tensor::Shape{1, 4, 4, 4}));
}

TEST(Conv2d, RejectsWrongChannels) {
  util::Rng rng(13);
  Conv2d conv(2, 4, 3, 1, 1, rng);
  EXPECT_THROW(conv.forward(Tensor({1, 3, 8, 8})), std::invalid_argument);
}

TEST(Conv2d, IdentityKernelPassesThrough) {
  util::Rng rng(14);
  Conv2d conv(1, 1, 1, 1, 0, rng);
  auto params = conv.parameters();
  params[0]->value[0] = 1.0f;
  params[1]->value[0] = 0.0f;
  const Tensor x = random_input({1, 1, 4, 4}, 15);
  EXPECT_TRUE(tensor::allclose(conv.forward(x), x));
}

TEST(Conv2d, InputGradient) {
  util::Rng rng(16);
  Conv2d conv(2, 3, 3, 1, 1, rng);
  test::check_input_gradient(conv, random_input({2, 2, 5, 5}, 17));
}

TEST(Conv2d, ParameterGradients) {
  util::Rng rng(18);
  Conv2d conv(2, 3, 3, 1, 1, rng);
  test::check_param_gradients(conv, random_input({2, 2, 5, 5}, 19));
}

TEST(Conv2d, StridedGradients) {
  util::Rng rng(20);
  Conv2d conv(1, 2, 4, 2, 1, rng);
  test::check_input_gradient(conv, random_input({1, 1, 8, 8}, 21));
  test::check_param_gradients(conv, random_input({1, 1, 8, 8}, 22));
}

// Naive direct convolution: the reference the batched im2col+GEMM path must
// reproduce. Double accumulation, straight from the definition.
Tensor conv2d_direct(const Tensor& x, const Tensor& w, const Tensor& b,
                     std::int64_t oc, std::int64_t k, std::int64_t stride,
                     std::int64_t pad) {
  const std::int64_t n = x.dim(0), ic = x.dim(1), h = x.dim(2), wd = x.dim(3);
  const std::int64_t oh = (h + 2 * pad - k) / stride + 1;
  const std::int64_t ow = (wd + 2 * pad - k) / stride + 1;
  Tensor y({n, oc, oh, ow});
  for (std::int64_t s = 0; s < n; ++s) {
    for (std::int64_t o = 0; o < oc; ++o) {
      for (std::int64_t oy = 0; oy < oh; ++oy) {
        for (std::int64_t ox = 0; ox < ow; ++ox) {
          double acc = b[o];
          for (std::int64_t c = 0; c < ic; ++c) {
            for (std::int64_t ky = 0; ky < k; ++ky) {
              for (std::int64_t kx = 0; kx < k; ++kx) {
                const std::int64_t iy = oy * stride - pad + ky;
                const std::int64_t ix = ox * stride - pad + kx;
                if (iy < 0 || iy >= h || ix < 0 || ix >= wd) continue;
                acc += static_cast<double>(
                           x.at({s, c, iy, ix})) *
                       w[(o * ic + c) * k * k + ky * k + kx];
              }
            }
          }
          y.at({s, o, oy, ox}) = static_cast<float>(acc);
        }
      }
    }
  }
  return y;
}

// Naive transposed convolution: scatter every input pixel through the
// kernel into the upsampled output.
Tensor conv_transpose2d_direct(const Tensor& x, const Tensor& w,
                               const Tensor& b, std::int64_t oc,
                               std::int64_t k, std::int64_t stride,
                               std::int64_t pad) {
  const std::int64_t n = x.dim(0), ic = x.dim(1), h = x.dim(2), wd = x.dim(3);
  const std::int64_t oh = (h - 1) * stride - 2 * pad + k;
  const std::int64_t ow = (wd - 1) * stride - 2 * pad + k;
  Tensor y({n, oc, oh, ow});
  for (std::int64_t s = 0; s < n; ++s) {
    for (std::int64_t o = 0; o < oc; ++o) {
      for (std::int64_t oy = 0; oy < oh; ++oy) {
        for (std::int64_t ox = 0; ox < ow; ++ox) {
          y.at({s, o, oy, ox}) = b[o];
        }
      }
    }
    for (std::int64_t c = 0; c < ic; ++c) {
      for (std::int64_t iy = 0; iy < h; ++iy) {
        for (std::int64_t ix = 0; ix < wd; ++ix) {
          const float xv = x.at({s, c, iy, ix});
          for (std::int64_t o = 0; o < oc; ++o) {
            for (std::int64_t ky = 0; ky < k; ++ky) {
              for (std::int64_t kx = 0; kx < k; ++kx) {
                const std::int64_t oy = iy * stride - pad + ky;
                const std::int64_t ox = ix * stride - pad + kx;
                if (oy < 0 || oy >= oh || ox < 0 || ox >= ow) continue;
                // Weight layout [IC, OC*K*K].
                y.at({s, o, oy, ox}) +=
                    xv * w[(c * oc + o) * k * k + ky * k + kx];
              }
            }
          }
        }
      }
    }
  }
  return y;
}

TEST(Conv2d, BatchedForwardMatchesDirectConvolution) {
  struct Config {
    std::int64_t k, stride, pad;
  };
  constexpr Config kConfigs[] = {
      {1, 1, 0}, {3, 1, 1}, {3, 2, 1}, {4, 2, 1}, {5, 1, 2}, {3, 3, 0},
  };
  constexpr std::int64_t kBatches[] = {1, 3, 8};
  std::uint64_t seed = 200;
  for (const auto& cfg : kConfigs) {
    for (const std::int64_t batch : kBatches) {
      util::Rng rng(seed);
      Conv2d conv(2, 3, cfg.k, cfg.stride, cfg.pad, rng);
      const Tensor x = random_input({batch, 2, 9, 9}, seed + 1);
      seed += 2;
      const Tensor got = conv.forward(x);
      const Tensor want =
          conv2d_direct(x, conv.parameters()[0]->value,
                        conv.parameters()[1]->value, 3, cfg.k, cfg.stride,
                        cfg.pad);
      ASSERT_EQ(got.shape(), want.shape())
          << "k=" << cfg.k << " s=" << cfg.stride << " p=" << cfg.pad;
      EXPECT_TRUE(tensor::allclose(got, want, 1e-4f))
          << "k=" << cfg.k << " s=" << cfg.stride << " p=" << cfg.pad
          << " batch=" << batch;
    }
  }
}

TEST(Conv2d, BatchedForwardIsSampleIndependent) {
  // Each sample's output must be bitwise identical whether it is convolved
  // alone or as part of a batch (fixed accumulation order in the kernel).
  util::Rng rng(300);
  Conv2d conv(3, 5, 3, 1, 1, rng);
  const Tensor x = random_input({4, 3, 8, 8}, 301);
  const Tensor batched = conv.forward(x);
  const std::int64_t sample = 3 * 8 * 8;
  const std::int64_t out_sample = 5 * 8 * 8;
  for (std::int64_t s = 0; s < 4; ++s) {
    Tensor one({1, 3, 8, 8});
    for (std::int64_t i = 0; i < sample; ++i) one[i] = x[s * sample + i];
    const Tensor y = conv.forward(one);
    for (std::int64_t i = 0; i < out_sample; ++i) {
      EXPECT_EQ(y[i], batched[s * out_sample + i]) << "sample " << s;
    }
  }
}

TEST(Conv2d, BatchedGradients) {
  util::Rng rng(310);
  Conv2d conv(2, 3, 4, 2, 1, rng);
  test::check_input_gradient(conv, random_input({3, 2, 8, 8}, 311));
  test::check_param_gradients(conv, random_input({3, 2, 8, 8}, 312));
}

// ---------- ConvTranspose2d ----------

TEST(ConvTranspose2d, UpsamplesByStride) {
  util::Rng rng(23);
  ConvTranspose2d deconv(4, 2, 4, 2, 1, rng);
  const Tensor y = deconv.forward(random_input({2, 4, 7, 7}, 24));
  EXPECT_EQ(y.shape(), (tensor::Shape{2, 2, 14, 14}));
}

TEST(ConvTranspose2d, InputGradient) {
  util::Rng rng(25);
  ConvTranspose2d deconv(2, 2, 4, 2, 1, rng);
  test::check_input_gradient(deconv, random_input({1, 2, 4, 4}, 26));
}

TEST(ConvTranspose2d, ParameterGradients) {
  util::Rng rng(27);
  ConvTranspose2d deconv(2, 2, 4, 2, 1, rng);
  test::check_param_gradients(deconv, random_input({1, 2, 4, 4}, 28));
}

TEST(ConvTranspose2d, BatchedForwardMatchesDirectScatter) {
  struct Config {
    std::int64_t k, stride, pad;
  };
  constexpr Config kConfigs[] = {{4, 2, 1}, {3, 1, 1}, {2, 2, 0}, {5, 3, 1}};
  constexpr std::int64_t kBatches[] = {1, 3, 8};
  std::uint64_t seed = 400;
  for (const auto& cfg : kConfigs) {
    for (const std::int64_t batch : kBatches) {
      util::Rng rng(seed);
      ConvTranspose2d deconv(3, 2, cfg.k, cfg.stride, cfg.pad, rng);
      const Tensor x = random_input({batch, 3, 5, 5}, seed + 1);
      seed += 2;
      const Tensor got = deconv.forward(x);
      const Tensor want = conv_transpose2d_direct(
          x, deconv.parameters()[0]->value, deconv.parameters()[1]->value, 2,
          cfg.k, cfg.stride, cfg.pad);
      ASSERT_EQ(got.shape(), want.shape())
          << "k=" << cfg.k << " s=" << cfg.stride << " p=" << cfg.pad;
      EXPECT_TRUE(tensor::allclose(got, want, 1e-4f))
          << "k=" << cfg.k << " s=" << cfg.stride << " p=" << cfg.pad
          << " batch=" << batch;
    }
  }
}

TEST(ConvTranspose2d, BatchedGradients) {
  util::Rng rng(410);
  ConvTranspose2d deconv(2, 2, 4, 2, 1, rng);
  test::check_input_gradient(deconv, random_input({3, 2, 4, 4}, 411));
  test::check_param_gradients(deconv, random_input({3, 2, 4, 4}, 412));
}

TEST(ConvTranspose2d, AdjointOfConv2d) {
  // With shared weights, <conv(x), y> == <x, deconv(y)> when the deconv
  // mirrors the conv geometry (no bias).
  util::Rng rng(29);
  Conv2d conv(2, 3, 3, 2, 1, rng);
  ConvTranspose2d deconv(3, 2, 3, 2, 1, rng);
  // Copy conv weight [OC, IC*K*K] into deconv weight [IC=3... ] layouts:
  // conv maps 2->3; its adjoint maps 3->2 and uses weight[IC_deconv=3][...].
  // conv weight layout [3, 2*9]; deconv wants [3, 2*9] as well
  // ([in_channels=3, out*k*k=2*9]) but indexed (oc_conv, ic_conv, ky, kx) ->
  // (ic_deconv=oc_conv, oc_deconv=ic_conv, ky, kx): same ordering.
  auto cw = conv.parameters()[0]->value;
  Tensor dw({3, 2 * 9});
  for (std::int64_t oc = 0; oc < 3; ++oc) {
    for (std::int64_t ic = 0; ic < 2; ++ic) {
      for (std::int64_t k = 0; k < 9; ++k) {
        dw[oc * 18 + ic * 9 + k] = cw[oc * 18 + ic * 9 + k];
      }
    }
  }
  deconv.parameters()[0]->value = dw;
  conv.parameters()[1]->value.fill(0.0f);
  deconv.parameters()[1]->value.fill(0.0f);

  const Tensor x = random_input({1, 2, 9, 9}, 30);
  const Tensor cx = conv.forward(x);  // [1, 3, 5, 5]
  const Tensor y = random_input({1, 3, 5, 5}, 31);
  const Tensor dy = deconv.forward(y);  // [1, 2, 9, 9]
  double lhs = 0.0;
  for (std::int64_t i = 0; i < cx.numel(); ++i) {
    lhs += static_cast<double>(cx[i]) * y[i];
  }
  double rhs = 0.0;
  for (std::int64_t i = 0; i < x.numel(); ++i) {
    rhs += static_cast<double>(x[i]) * dy[i];
  }
  EXPECT_NEAR(lhs, rhs, 1e-3);
}

TEST(ConvTranspose2d, RunsConv2dLoweringInReverse) {
  // A ConvTranspose2d sharing a Conv2d's weight (and zero biases) runs the
  // conv's lowering backwards, so the two must agree bit for bit: the
  // deconv's forward is the conv's input gradient, the deconv's input
  // gradient is the conv's forward, and both weight gradients are
  // gathered(y) @ im2col(x)ᵀ.
  struct Case {
    std::int64_t in, out, k, s, p, n, oh, ow;
  };
  std::vector<Case> cases;
  util::Rng draw(500);
  auto pick = [&](std::int64_t lo, std::int64_t hi) {
    return lo + static_cast<std::int64_t>(
                    draw.uniform_index(static_cast<std::uint64_t>(hi - lo + 1)));
  };
  while (cases.size() < 60) {
    Case c{pick(1, 4), pick(1, 4), pick(1, 5), pick(1, 3),
           pick(0, 2), pick(1, 9), pick(1, 6), pick(1, 6)};
    // The conv's input must be non-empty: (OH-1)*s - 2p + k >= 1.
    if ((c.oh - 1) * c.s - 2 * c.p + c.k < 1) continue;
    if ((c.ow - 1) * c.s - 2 * c.p + c.k < 1) continue;
    cases.push_back(c);
  }
  // 36 * 16*16 * 32 column entries cross the pool-parallel im2col/col2im
  // threshold (2^18).
  cases.push_back({4, 3, 3, 1, 1, 32, 16, 16});

  std::uint64_t seed = 510;
  for (const Case& c : cases) {
    const std::int64_t h = (c.oh - 1) * c.s - 2 * c.p + c.k;
    const std::int64_t w = (c.ow - 1) * c.s - 2 * c.p + c.k;
    util::Rng rng(seed++);
    Conv2d conv(c.in, c.out, c.k, c.s, c.p, rng);
    ConvTranspose2d deconv(c.out, c.in, c.k, c.s, c.p, rng);
    deconv.parameters()[0]->value = conv.parameters()[0]->value;
    conv.parameters()[1]->value.fill(0.0f);
    deconv.parameters()[1]->value.fill(0.0f);
    const Tensor x = random_input({c.n, c.in, h, w}, seed++);
    const Tensor y = random_input({c.n, c.out, c.oh, c.ow}, seed++);

    const Tensor conv_x = conv.forward(x);
    const Tensor& conv_dy = conv.backward(y);
    const Tensor& deconv_y = deconv.forward(y);
    std::ostringstream what;
    what << "in=" << c.in << " out=" << c.out << " k=" << c.k << " s=" << c.s
         << " p=" << c.p << " n=" << c.n << " " << c.oh << "x" << c.ow;
    ASSERT_EQ(conv_x.shape(), (tensor::Shape{c.n, c.out, c.oh, c.ow}))
        << what.str();
    EXPECT_TRUE(same_bits(deconv_y.data(), conv_dy.data())) << what.str();
    EXPECT_TRUE(same_bits(deconv.backward(x).data(), conv_x.data()))
        << what.str();
    EXPECT_TRUE(same_bits(deconv.parameters()[0]->grad.data(),
                          conv.parameters()[0]->grad.data()))
        << what.str();
  }
}

// ---------- MaxPool2d ----------

TEST(MaxPool2d, ForwardSelectsWindowMax) {
  MaxPool2d pool(2);
  const Tensor x({1, 1, 2, 2}, std::vector<float>{1, 5, 3, 2});
  const Tensor y = pool.forward(x);
  EXPECT_EQ(y.shape(), (tensor::Shape{1, 1, 1, 1}));
  EXPECT_FLOAT_EQ(y[0], 5.0f);
}

TEST(MaxPool2d, BackwardRoutesToArgmax) {
  MaxPool2d pool(2);
  const Tensor x({1, 1, 2, 2}, std::vector<float>{1, 5, 3, 2});
  pool.forward(x);
  const Tensor g({1, 1, 1, 1}, std::vector<float>{2.5f});
  const Tensor gx = pool.backward(g);
  EXPECT_FLOAT_EQ(gx[0], 0.0f);
  EXPECT_FLOAT_EQ(gx[1], 2.5f);
  EXPECT_FLOAT_EQ(gx[2], 0.0f);
}

TEST(MaxPool2d, InputGradientNumeric) {
  MaxPool2d pool(2);
  // Distinct values avoid argmax ties that break finite differences.
  Tensor x({1, 2, 4, 4});
  for (std::int64_t i = 0; i < x.numel(); ++i) {
    x[i] = static_cast<float>((i * 7919) % 97) / 10.0f;
  }
  test::check_input_gradient(pool, x);
}

TEST(MaxPool2d, InvalidConstruction) {
  EXPECT_THROW(MaxPool2d(0), std::invalid_argument);
}

// ---------- Activations ----------

TEST(Activations, ReLUForward) {
  ReLU relu;
  const Tensor x({4}, std::vector<float>{-1, 0, 2, -3});
  const Tensor y = relu.forward(x);
  EXPECT_FLOAT_EQ(y[0], 0.0f);
  EXPECT_FLOAT_EQ(y[2], 2.0f);
}

TEST(Activations, ReLUGradientMasksNegative) {
  ReLU relu;
  const Tensor x({3}, std::vector<float>{-1, 2, 3});
  relu.forward(x);
  const Tensor g({3}, std::vector<float>{10, 10, 10});
  const Tensor gx = relu.backward(g);
  EXPECT_FLOAT_EQ(gx[0], 0.0f);
  EXPECT_FLOAT_EQ(gx[1], 10.0f);
}

TEST(Activations, TanhGradient) {
  Tanh tanh_layer;
  test::check_input_gradient(tanh_layer, random_input({3, 4}, 32), 1e-3,
                             2e-2);
}

// ---------- Flatten / Unflatten ----------

TEST(Flatten, RoundTripShapes) {
  Flatten flatten;
  const Tensor x = random_input({2, 3, 4, 5}, 35);
  const Tensor y = flatten.forward(x);
  EXPECT_EQ(y.shape(), (tensor::Shape{2, 60}));
  const Tensor gx = flatten.backward(y);
  EXPECT_EQ(gx.shape(), x.shape());
}

TEST(Unflatten, RoundTripShapes) {
  Unflatten unflatten(3, 4, 5);
  const Tensor x = random_input({2, 60}, 36);
  const Tensor y = unflatten.forward(x);
  EXPECT_EQ(y.shape(), (tensor::Shape{2, 3, 4, 5}));
  EXPECT_EQ(unflatten.backward(y).shape(), x.shape());
  EXPECT_THROW(unflatten.forward(Tensor({2, 59})), std::invalid_argument);
}

// ---------- Sequential + flat params ----------

TEST(Sequential, ChainsLayersAndCollectsParams) {
  util::Rng rng(37);
  Sequential net;
  net.emplace<Linear>(8, 6, rng);
  net.emplace<ReLU>();
  net.emplace<Linear>(6, 2, rng);
  EXPECT_EQ(net.size(), 3u);
  const Tensor y = net.forward(random_input({4, 8}, 38));
  EXPECT_EQ(y.shape(), (tensor::Shape{4, 2}));
  EXPECT_EQ(num_params(net), 8 * 6 + 6 + 6 * 2 + 2);
}

TEST(Sequential, EndToEndGradient) {
  util::Rng rng(39);
  Sequential net;
  net.emplace<Conv2d>(1, 2, 3, 1, 1, rng);
  net.emplace<ReLU>();
  net.emplace<MaxPool2d>(2);
  net.emplace<Flatten>();
  net.emplace<Linear>(2 * 3 * 3, 4, rng);
  test::check_param_gradients(net, random_input({2, 1, 6, 6}, 40));
}

TEST(FlatParams, RoundTrip) {
  util::Rng rng(41);
  Sequential net;
  net.emplace<Linear>(3, 2, rng);
  net.emplace<Linear>(2, 1, rng);
  const auto flat = get_flat_params(net);
  EXPECT_EQ(flat.size(), static_cast<std::size_t>(num_params(net)));

  std::vector<float> modified = flat;
  for (auto& x : modified) x += 1.0f;
  set_flat_params(net, modified);
  EXPECT_EQ(get_flat_params(net), modified);
}

TEST(FlatParams, SizeMismatchThrows) {
  util::Rng rng(42);
  Sequential net;
  net.emplace<Linear>(3, 2, rng);
  EXPECT_THROW(set_flat_params(net, std::vector<float>(3)),
               std::invalid_argument);
  EXPECT_THROW(set_flat_params(net, std::vector<float>(1000)),
               std::invalid_argument);
  EXPECT_THROW(add_to_flat_grads(net, std::vector<float>(3)),
               std::invalid_argument);
}

TEST(FlatParams, AddToGradsAccumulates) {
  util::Rng rng(43);
  Sequential net;
  net.emplace<Linear>(2, 2, rng);
  net.zero_grad();
  std::vector<float> delta(static_cast<std::size_t>(num_params(net)), 0.5f);
  add_to_flat_grads(net, delta);
  add_to_flat_grads(net, delta);
  for (const float g : get_flat_grads(net)) EXPECT_FLOAT_EQ(g, 1.0f);
}

// ---------- freeze() ----------

// A frozen module's backward returns the unfrozen input gradient bit for
// bit and leaves every parameter gradient as it found it. `make` must build
// the same module (same parameters) on every call.
template <typename Make>
void check_frozen_backward(Make make, const tensor::Shape& input_shape,
                           const char* what) {
  constexpr float kSentinel = 12345.0f;
  const Tensor x = random_input(input_shape, 31);
  const std::unique_ptr<Module> live = make();
  const std::unique_ptr<Module> frozen = make();
  frozen->freeze();
  EXPECT_TRUE(frozen->frozen()) << what;
  EXPECT_FALSE(live->frozen()) << what;

  const Tensor y = live->forward(x);  // a copy: backward may reuse it
  const Tensor g = random_input(y.shape(), 32);
  const Tensor dx_live = live->backward(g);
  bool live_grad_moved = false;
  for (Parameter* p : live->parameters()) {
    for (const float v : p->grad.data()) live_grad_moved |= v != 0.0f;
  }
  EXPECT_TRUE(live_grad_moved) << what;

  for (Parameter* p : frozen->parameters()) p->grad.fill(kSentinel);
  // Twice: a second forward/backward on a frozen module changes nothing.
  for (int pass = 0; pass < 2; ++pass) {
    const Tensor& out = frozen->forward(x);
    EXPECT_TRUE(same_bits(out.data(), y.data())) << what;
    const Tensor& dx = frozen->backward(g);
    ASSERT_EQ(dx.shape(), dx_live.shape()) << what;
    EXPECT_TRUE(same_bits(dx.data(), dx_live.data()))
        << what << " pass " << pass;
  }
  for (Parameter* p : frozen->parameters()) {
    for (const float v : p->grad.data()) {
      ASSERT_EQ(v, kSentinel) << what << ": a frozen backward wrote a grad";
    }
  }
}

TEST(Freeze, Conv2dComputesInputGradientOnly) {
  for (const std::int64_t n : {1, 5}) {
    check_frozen_backward(
        [] {
          util::Rng rng(41);
          return std::unique_ptr<Module>(new Conv2d(3, 4, 3, 1, 1, rng));
        },
        {n, 3, 9, 9}, "Conv2d");
  }
}

TEST(Freeze, LinearComputesInputGradientOnly) {
  for (const std::int64_t n : {1, 7}) {
    check_frozen_backward(
        [] {
          util::Rng rng(42);
          return std::unique_ptr<Module>(new Linear(12, 5, rng));
        },
        {n, 12}, "Linear");
  }
}

TEST(Freeze, ConvTranspose2dComputesInputGradientOnly) {
  for (const std::int64_t n : {1, 4}) {
    check_frozen_backward(
        [] {
          util::Rng rng(43);
          return std::unique_ptr<Module>(
              new ConvTranspose2d(6, 3, 4, 2, 1, rng));
        },
        {n, 6, 5, 5}, "ConvTranspose2d");
  }
}

// The Cifar CNN as one Sequential: freeze() reaches every layer. Batch 64
// also takes the conv GEMMs down their pool-parallel path.
TEST(Freeze, CifarCnnComputesInputGradientOnly) {
  const auto spec = models::cifar_spec();
  for (const std::int64_t n : {1, 64}) {
    check_frozen_backward(
        [] {
          return std::unique_ptr<Module>(
              models::task_model_factory(models::Task::kCifar)(44));
        },
        {n, spec.channels, spec.height, spec.width}, "Cifar CNN");
  }
}

// A module thawed after a FreezeScope backpropagates like one that was never
// frozen: the same input gradient and the same parameter gradients, bit for
// bit. The frozen pass runs at another batch size first, so the thawed
// module also starts from buffers that pass left behind.
template <typename Make>
void check_thawed_backward(Make make, const tensor::Shape& input_shape,
                           const char* what) {
  const Tensor x = random_input(input_shape, 33);
  const std::unique_ptr<Module> never = make();
  const std::unique_ptr<Module> thawed = make();
  {
    tensor::Shape frozen_shape = input_shape;
    frozen_shape[0] += 2;
    const Tensor xf = random_input(frozen_shape, 34);
    const FreezeScope frozen(*thawed);
    EXPECT_TRUE(thawed->frozen()) << what;
    const Tensor yf = thawed->forward(xf);
    thawed->backward(random_input(yf.shape(), 35));
  }
  EXPECT_FALSE(thawed->frozen()) << what;

  const Tensor y = never->forward(x);
  const Tensor g = random_input(y.shape(), 36);
  const Tensor dx_never = never->backward(g);
  // Two passes: gradients accumulate, and must keep matching.
  for (int pass = 0; pass < 2; ++pass) {
    if (pass == 1) {
      never->forward(x);
      never->backward(g);
    }
    thawed->forward(x);
    const Tensor& dx = thawed->backward(g);
    EXPECT_TRUE(same_bits(dx.data(), dx_never.data())) << what;
    const auto pn = never->parameters();
    const auto pt = thawed->parameters();
    ASSERT_EQ(pn.size(), pt.size()) << what;
    for (std::size_t i = 0; i < pn.size(); ++i) {
      EXPECT_TRUE(same_bits(pt[i]->grad.data(), pn[i]->grad.data()))
          << what << ": parameter " << i << ", pass " << pass;
    }
  }
}

TEST(Freeze, ThawRestoresParameterGradients) {
  check_thawed_backward(
      [] {
        util::Rng rng(41);
        return std::unique_ptr<Module>(new Conv2d(3, 4, 3, 1, 1, rng));
      },
      {3, 3, 9, 9}, "Conv2d");
  check_thawed_backward(
      [] {
        util::Rng rng(42);
        return std::unique_ptr<Module>(new Linear(12, 5, rng));
      },
      {7, 12}, "Linear");
  check_thawed_backward(
      [] {
        util::Rng rng(43);
        return std::unique_ptr<Module>(
            new ConvTranspose2d(6, 3, 4, 2, 1, rng));
      },
      {4, 6, 5, 5}, "ConvTranspose2d");
  for (const models::Task task :
       {models::Task::kFashion, models::Task::kCifar}) {
    const auto spec = models::task_spec(task);
    check_thawed_backward(
        [task] {
          return std::unique_ptr<Module>(
              models::task_model_factory(task)(44));
        },
        {5, spec.channels, spec.height, spec.width}, models::task_name(task));
  }
}

// A scope on a Sequential freezes and then thaws every layer it holds.
TEST(Freeze, ScopeReachesEveryLayer) {
  auto net = models::task_model_factory(models::Task::kCifar)(45);
  {
    const FreezeScope frozen(*net);
    for (std::size_t i = 0; i < net->size(); ++i) {
      EXPECT_TRUE(net->layer(i).frozen()) << "layer " << i;
    }
  }
  EXPECT_FALSE(net->frozen());
  for (std::size_t i = 0; i < net->size(); ++i) {
    EXPECT_FALSE(net->layer(i).frozen()) << "layer " << i;
  }
}

}  // namespace
}  // namespace zka::nn
