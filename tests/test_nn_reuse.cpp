// Stale-buffer differential test: every nn layer keeps its output and
// input-gradient buffers across calls and resizes them in place. Here a
// module reused over a randomized sequence of batch shapes must match, bit
// for bit and at every step, a module freshly built with the same weights:
// output, input gradient and parameter gradients. State carried from one
// call into the next (a buffer not fully rewritten after a larger batch,
// a cached shape, the shared GEMM staging) shows up as a mismatch. The
// three scatters that accumulate into a buffer that must be zeroed first
// (col2im in Conv2d's backward and ConvTranspose2d's forward, MaxPool2d's
// backward) are also checked against naive references.
#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <memory>
#include <vector>

#include "data/synthetic.h"
#include "fl/registry.h"
#include "fl/metrics.h"
#include "models/models.h"
#include "nn/activations.h"
#include "nn/conv2d.h"
#include "nn/flatten.h"
#include "nn/linear.h"
#include "nn/pooling.h"
#include "util/rng.h"

namespace zka::nn {
namespace {

using tensor::Tensor;

using ModuleFactory = std::function<std::unique_ptr<Module>()>;
// Input shape for a given batch size.
using InputShape = std::function<tensor::Shape(std::int64_t)>;

void expect_bitwise(const Tensor& got, const Tensor& want, const char* what,
                    std::size_t step) {
  ASSERT_EQ(got.shape(), want.shape()) << what << " at step " << step;
  EXPECT_EQ(0, std::memcmp(got.raw(), want.raw(),
                           static_cast<std::size_t>(got.numel()) *
                               sizeof(float)))
      << what << " differs at step " << step;
}

// The fixed sequence the buffer rules are about (grow, shrink, a batch of
// one, grow back), then random sizes.
std::vector<std::int64_t> batch_sequence(std::uint64_t seed) {
  std::vector<std::int64_t> sizes = {32, 32, 20, 64, 1, 32};
  util::Rng rng(seed);
  for (int i = 0; i < 3; ++i) {
    sizes.push_back(1 + static_cast<std::int64_t>(rng.uniform_index(48)));
  }
  return sizes;
}

// Runs the sequence through one reused module and, per step, through a
// fresh one; both are built by `make` (which seeds identical weights).
void check_reuse(const ModuleFactory& make, const InputShape& input_shape,
                 std::uint64_t seed) {
  const std::unique_ptr<Module> reused = make();
  util::Rng rng(seed);
  const std::vector<std::int64_t> sizes = batch_sequence(seed);
  for (std::size_t step = 0; step < sizes.size(); ++step) {
    const Tensor x =
        Tensor::uniform(input_shape(sizes[step]), rng, -1.0f, 1.0f);
    const std::unique_ptr<Module> fresh = make();

    const Tensor y_fresh = fresh->forward(x);
    const Tensor y_reused = reused->forward(x);
    expect_bitwise(y_reused, y_fresh, "output", step);

    const Tensor g = Tensor::uniform(y_fresh.shape(), rng, -1.0f, 1.0f);
    fresh->zero_grad();
    reused->zero_grad();
    expect_bitwise(reused->backward(g), fresh->backward(g), "input gradient",
                   step);
    const auto fresh_params = fresh->parameters();
    const auto reused_params = reused->parameters();
    ASSERT_EQ(fresh_params.size(), reused_params.size());
    for (std::size_t p = 0; p < fresh_params.size(); ++p) {
      expect_bitwise(reused_params[p]->grad, fresh_params[p]->grad,
                     "parameter gradient", step);
    }
  }
}

template <typename Layer, typename... Args>
ModuleFactory seeded(Args... args) {
  return [=]() -> std::unique_ptr<Module> {
    util::Rng rng(77);
    return std::make_unique<Layer>(args..., rng);
  };
}

template <typename Layer, typename... Args>
ModuleFactory stateless(Args... args) {
  return [=]() -> std::unique_ptr<Module> {
    return std::make_unique<Layer>(args...);
  };
}

InputShape nchw(std::int64_t c, std::int64_t h, std::int64_t w) {
  return [=](std::int64_t n) { return tensor::Shape{n, c, h, w}; };
}

InputShape rows(std::int64_t features) {
  return [=](std::int64_t n) { return tensor::Shape{n, features}; };
}

// ---- Independent references for the three scatters that accumulate ----
//
// Comparing with a fresh module cannot catch a scatter whose buffer is not
// zeroed, since a fresh module holds its forward output in the same buffer
// before backward. These naive loops compute the same quantities from
// scratch; the reused module must match them at every step of the sequence.

// dL/dx of a Conv2d for upstream gradient g: every tap scattered back.
Tensor conv2d_input_grad(const Tensor& w, const Tensor& g,
                         const tensor::Shape& x_shape, std::int64_t k,
                         std::int64_t stride, std::int64_t pad) {
  Tensor gx(x_shape);
  const std::int64_t ic = x_shape[1], h = x_shape[2], wd = x_shape[3];
  const std::int64_t oc = g.dim(1), oh = g.dim(2), ow = g.dim(3);
  for (std::int64_t n = 0; n < g.dim(0); ++n)
    for (std::int64_t co = 0; co < oc; ++co)
      for (std::int64_t oy = 0; oy < oh; ++oy)
        for (std::int64_t ox = 0; ox < ow; ++ox)
          for (std::int64_t ci = 0; ci < ic; ++ci)
            for (std::int64_t ky = 0; ky < k; ++ky)
              for (std::int64_t kx = 0; kx < k; ++kx) {
                const std::int64_t iy = oy * stride - pad + ky;
                const std::int64_t ix = ox * stride - pad + kx;
                if (iy < 0 || iy >= h || ix < 0 || ix >= wd) continue;
                gx.at({n, ci, iy, ix}) += w.at({co, (ci * k + ky) * k + kx}) *
                                          g.at({n, co, oy, ox});
              }
  return gx;
}

// Forward of a ConvTranspose2d: every input pixel scattered through W.
Tensor conv_transpose_forward(const Tensor& x, const Tensor& w,
                              const Tensor& b, std::int64_t oc,
                              std::int64_t k, std::int64_t stride,
                              std::int64_t pad) {
  const std::int64_t oh = (x.dim(2) - 1) * stride - 2 * pad + k;
  const std::int64_t ow = (x.dim(3) - 1) * stride - 2 * pad + k;
  Tensor y({x.dim(0), oc, oh, ow});
  for (std::int64_t n = 0; n < x.dim(0); ++n)
    for (std::int64_t co = 0; co < oc; ++co)
      for (std::int64_t oy = 0; oy < oh; ++oy)
        for (std::int64_t ox = 0; ox < ow; ++ox) y.at({n, co, oy, ox}) = b[co];
  for (std::int64_t n = 0; n < x.dim(0); ++n)
    for (std::int64_t ci = 0; ci < x.dim(1); ++ci)
      for (std::int64_t iy = 0; iy < x.dim(2); ++iy)
        for (std::int64_t ix = 0; ix < x.dim(3); ++ix)
          for (std::int64_t co = 0; co < oc; ++co)
            for (std::int64_t ky = 0; ky < k; ++ky)
              for (std::int64_t kx = 0; kx < k; ++kx) {
                const std::int64_t oy = iy * stride - pad + ky;
                const std::int64_t ox = ix * stride - pad + kx;
                if (oy < 0 || oy >= oh || ox < 0 || ox >= ow) continue;
                y.at({n, co, oy, ox}) += x.at({n, ci, iy, ix}) *
                                         w.at({ci, (co * k + ky) * k + kx});
              }
  return y;
}

// MaxPool2d backward: each output's gradient added at its window's first
// maximum, in output order (the layer's own order, so bitwise comparable).
Tensor maxpool_input_grad(const Tensor& x, const Tensor& g, std::int64_t k,
                          std::int64_t stride) {
  Tensor gx(x.shape());
  for (std::int64_t n = 0; n < g.dim(0); ++n)
    for (std::int64_t c = 0; c < g.dim(1); ++c)
      for (std::int64_t oy = 0; oy < g.dim(2); ++oy)
        for (std::int64_t ox = 0; ox < g.dim(3); ++ox) {
          std::int64_t by = oy * stride, bx = ox * stride;
          for (std::int64_t ky = 0; ky < k; ++ky)
            for (std::int64_t kx = 0; kx < k; ++kx) {
              const std::int64_t iy = oy * stride + ky, ix = ox * stride + kx;
              if (x.at({n, c, iy, ix}) > x.at({n, c, by, bx})) {
                by = iy;
                bx = ix;
              }
            }
          gx.at({n, c, by, bx}) += g.at({n, c, oy, ox});
        }
  return gx;
}

TEST(NnReuse, ScattersMatchNaiveReferences) {
  util::Rng rng(31);
  util::Rng init(32);
  Conv2d conv(2, 3, 3, 2, 1, init);
  ConvTranspose2d deconv(3, 2, 4, 2, 1, init);
  MaxPool2d pool(3, 1);  // overlapping windows
  for (const std::int64_t n : batch_sequence(33)) {
    const Tensor x = Tensor::uniform({n, 2, 7, 7}, rng, -1.0f, 1.0f);
    const Tensor y = conv.forward(x);
    const Tensor g = Tensor::uniform(y.shape(), rng, -1.0f, 1.0f);
    EXPECT_TRUE(tensor::allclose(
        conv.backward(g),
        conv2d_input_grad(conv.parameters()[0]->value, g, x.shape(), 3, 2, 1),
        1e-4f))
        << "Conv2d input gradient, batch " << n;

    const Tensor z = Tensor::uniform({n, 3, 3, 3}, rng, -1.0f, 1.0f);
    EXPECT_TRUE(tensor::allclose(
        deconv.forward(z),
        conv_transpose_forward(z, deconv.parameters()[0]->value,
                               deconv.parameters()[1]->value, 2, 4, 2, 1),
        1e-4f))
        << "ConvTranspose2d output, batch " << n;

    const Tensor& p = pool.forward(x);
    const Tensor gp = Tensor::uniform(p.shape(), rng, -1.0f, 1.0f);
    expect_bitwise(pool.backward(gp), maxpool_input_grad(x, gp, 3, 1),
                   "MaxPool2d input gradient", static_cast<std::size_t>(n));
  }
}

TEST(NnReuse, Conv2d) {
  // Large batches cross the pool-parallel im2col/col2im threshold.
  check_reuse(seeded<Conv2d>(3, 4, 3, 1, 1), nchw(3, 16, 16), 1);
  check_reuse(seeded<Conv2d>(2, 3, 3, 2, 0), nchw(2, 9, 9), 2);
}

TEST(NnReuse, ConvTranspose2d) {
  check_reuse(seeded<ConvTranspose2d>(4, 2, 4, 2, 1), nchw(4, 5, 5), 3);
}

TEST(NnReuse, Linear) { check_reuse(seeded<Linear>(12, 5), rows(12), 4); }

TEST(NnReuse, Activations) {
  check_reuse(stateless<ReLU>(), nchw(2, 3, 3), 5);
  check_reuse(stateless<Tanh>(), rows(7), 7);
}

TEST(NnReuse, MaxPool2d) {
  check_reuse(stateless<MaxPool2d>(2), nchw(3, 8, 8), 9);
  // Overlapping windows route several outputs to one input, so the
  // backward scatter really accumulates.
  check_reuse(stateless<MaxPool2d>(3, 1), nchw(2, 6, 6), 10);
}

TEST(NnReuse, FlattenAndUnflatten) {
  check_reuse(stateless<Flatten>(), nchw(2, 3, 4), 11);
  check_reuse(stateless<Unflatten>(2, 3, 4), rows(24), 12);
}

TEST(NnReuse, TaskCnnsAndGenerator) {
  const auto fashion = models::fashion_spec();
  const auto cifar = models::cifar_spec();
  check_reuse(
      [] {
        util::Rng rng(5);
        return std::unique_ptr<Module>(models::make_fashion_cnn(rng));
      },
      nchw(fashion.channels, fashion.height, fashion.width), 13);
  check_reuse(
      [] {
        util::Rng rng(6);
        return std::unique_ptr<Module>(models::make_cifar_cnn(rng));
      },
      nchw(cifar.channels, cifar.height, cifar.width), 14);
  check_reuse(
      [&] {
        util::Rng rng(7);
        return std::unique_ptr<Module>(
            models::make_tcnn_generator(fashion, 16, rng));
      },
      rows(16), 15);
}

// registry.train on one kept replica, over shards whose sizes leave a
// partial last batch (and one smaller than a batch), equals a training run
// of the same client on a freshly built model.
TEST(NnReuse, ClientScratchMatchesFreshTraining) {
  const auto dataset =
      data::make_synthetic_dataset(models::Task::kFashion, 120, 21);
  const auto factory = models::task_model_factory(models::Task::kFashion);
  const std::vector<float> global = get_flat_params(*factory(3));
  const std::vector<std::int64_t> shards = {45, 32, 7, 64, 45};
  std::vector<std::vector<std::int64_t>> parts;
  std::int64_t first = 0;
  for (const std::int64_t shard : shards) {
    parts.emplace_back();
    for (std::int64_t i = 0; i < shard; ++i) {
      parts.back().push_back((first + i) % dataset.size());
    }
    first += shard;
  }
  const fl::ClientRegistry clients(dataset, std::move(parts),
                                   {.local_epochs = 2, .batch_size = 32});
  data::TrainScratch scratch;
  scratch.model = factory(0);
  std::vector<float> update;
  for (std::size_t c = 0; c < shards.size(); ++c) {
    const auto id = static_cast<std::int64_t>(c);
    const std::uint64_t seed = 100 + static_cast<std::uint64_t>(shards[c]);
    clients.train(id, global, seed, scratch, update);
    data::TrainScratch fresh;
    fresh.model = factory(seed);
    std::vector<float> expected;
    clients.train(id, global, seed, fresh, expected);
    EXPECT_EQ(update, expected) << "shard of " << shards[c];
  }
}

// Evaluating on a kept model (partial last batch included) equals
// evaluating on a fresh one, whatever the kept model ran before.
TEST(NnReuse, EvaluationOnKeptModelMatchesFresh) {
  const auto factory = models::task_model_factory(models::Task::kCifar);
  const std::vector<float> params = get_flat_params(*factory(8));
  const auto kept = factory(9);
  for (const std::int64_t size : {150, 64, 10}) {
    const auto dataset = data::make_synthetic_dataset(
        models::Task::kCifar, size, static_cast<std::uint64_t>(size));
    EXPECT_EQ(fl::evaluate_accuracy(*kept, params, dataset),
              fl::evaluate_accuracy(*factory(0), params, dataset))
        << size << " samples";
  }
}

}  // namespace
}  // namespace zka::nn
