// Micro-benchmarks of the tensor kernels, including the DESIGN.md ablation
// of im2col+GEMM convolution vs a naive 7-loop implementation, per-layer
// probes of a Cifar CNN training step and a ZKA-G generator epoch, and the
// eval batch sweep (results/perf_breakdown.md).
#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>
#include <vector>

#include "data/local_sgd.h"
#include "data/synthetic.h"
#include "fl/metrics.h"
#include "models/models.h"
#include "nn/conv2d.h"
#include "nn/loss.h"
#include "nn/sgd.h"
#include "tensor/ops.h"
#include "util/prof.h"
#include "util/rng.h"

namespace {

using namespace zka;
using tensor::Tensor;

void BM_Gemm(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  util::Rng rng(1);
  const Tensor a = Tensor::uniform({n, n}, rng, -1.0f, 1.0f);
  const Tensor b = Tensor::uniform({n, n}, rng, -1.0f, 1.0f);
  Tensor c({n, n});
  for (auto _ : state) {
    tensor::gemm(n, n, n, 1.0f, a.raw(), b.raw(), 0.0f, c.raw());
    benchmark::DoNotOptimize(c.raw());
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_Gemm)->Arg(32)->Arg(64)->Arg(128)->Arg(256)->Arg(384);

void BM_GemmAtB(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  util::Rng rng(1);
  const Tensor a = Tensor::uniform({n, n}, rng, -1.0f, 1.0f);
  const Tensor b = Tensor::uniform({n, n}, rng, -1.0f, 1.0f);
  Tensor c({n, n});
  for (auto _ : state) {
    tensor::gemm_at_b(n, n, n, 1.0f, a.raw(), b.raw(), 0.0f, c.raw());
    benchmark::DoNotOptimize(c.raw());
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_GemmAtB)->Arg(128)->Arg(256);

void BM_GemmABt(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  util::Rng rng(1);
  const Tensor a = Tensor::uniform({n, n}, rng, -1.0f, 1.0f);
  const Tensor b = Tensor::uniform({n, n}, rng, -1.0f, 1.0f);
  Tensor c({n, n});
  for (auto _ : state) {
    tensor::gemm_a_bt(n, n, n, 1.0f, a.raw(), b.raw(), 0.0f, c.raw());
    benchmark::DoNotOptimize(c.raw());
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_GemmABt)->Arg(128)->Arg(256);

void BM_Im2Col(benchmark::State& state) {
  const tensor::ConvGeometry g{3, 32, 32, 3, 1, 1};
  util::Rng rng(2);
  const Tensor img = Tensor::uniform({3, 32, 32}, rng, -1.0f, 1.0f);
  std::vector<float> col(
      static_cast<std::size_t>(g.patch_size() * g.out_h() * g.out_w()));
  for (auto _ : state) {
    tensor::im2col_batched(g, img.raw(), 1, col.data());
    benchmark::DoNotOptimize(col.data());
  }
}
BENCHMARK(BM_Im2Col);

// Naive direct convolution (the ablation baseline for im2col + GEMM).
void conv_naive(const Tensor& input, const Tensor& weight, Tensor& out,
                std::int64_t ic, std::int64_t oc, std::int64_t h,
                std::int64_t w, std::int64_t k) {
  const std::int64_t pad = (k - 1) / 2;
  for (std::int64_t o = 0; o < oc; ++o) {
    for (std::int64_t y = 0; y < h; ++y) {
      for (std::int64_t x = 0; x < w; ++x) {
        float acc = 0.0f;
        for (std::int64_t c = 0; c < ic; ++c) {
          for (std::int64_t ky = 0; ky < k; ++ky) {
            const std::int64_t iy = y - pad + ky;
            if (iy < 0 || iy >= h) continue;
            for (std::int64_t kx = 0; kx < k; ++kx) {
              const std::int64_t ix = x - pad + kx;
              if (ix < 0 || ix >= w) continue;
              acc += input[(c * h + iy) * w + ix] *
                     weight[((o * ic + c) * k + ky) * k + kx];
            }
          }
        }
        out[(o * h + y) * w + x] = acc;
      }
    }
  }
}

void BM_ConvNaive(benchmark::State& state) {
  util::Rng rng(3);
  const Tensor input = Tensor::uniform({8, 16, 16}, rng, -1.0f, 1.0f);
  const Tensor weight = Tensor::uniform({16, 8, 3, 3}, rng, -0.1f, 0.1f);
  Tensor out({16, 16, 16});
  for (auto _ : state) {
    conv_naive(input, weight, out, 8, 16, 16, 16, 3);
    benchmark::DoNotOptimize(out.raw());
  }
}
BENCHMARK(BM_ConvNaive);

void BM_ConvIm2ColGemm(benchmark::State& state) {
  util::Rng rng(3);
  nn::Conv2d conv(8, 16, 3, 1, 1, rng);
  const Tensor input = Tensor::uniform({1, 8, 16, 16}, rng, -1.0f, 1.0f);
  for (auto _ : state) {
    const Tensor& out = conv.forward(input);
    benchmark::DoNotOptimize(out.raw());
  }
}
BENCHMARK(BM_ConvIm2ColGemm);

// Batched forward: one [N, C, H, W] call per iteration. `range(0)` is the
// batch size; the acceptance target is batch 32.
void BM_ConvForwardBatched(benchmark::State& state) {
  const std::int64_t batch = state.range(0);
  util::Rng rng(3);
  nn::Conv2d conv(8, 16, 3, 1, 1, rng);
  const Tensor input = Tensor::uniform({batch, 8, 16, 16}, rng, -1.0f, 1.0f);
  for (auto _ : state) {
    const Tensor& out = conv.forward(input);
    benchmark::DoNotOptimize(out.raw());
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_ConvForwardBatched)->Arg(1)->Arg(8)->Arg(32);

void BM_ConvBackwardBatched(benchmark::State& state) {
  const std::int64_t batch = state.range(0);
  util::Rng rng(4);
  nn::Conv2d conv(8, 16, 3, 1, 1, rng);
  const Tensor input = Tensor::uniform({batch, 8, 16, 16}, rng, -1.0f, 1.0f);
  const Tensor out = conv.forward(input);
  for (auto _ : state) {
    conv.zero_grad();
    const Tensor& gx = conv.backward(out);
    benchmark::DoNotOptimize(gx.raw());
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_ConvBackwardBatched)->Arg(8)->Arg(32);

void BM_ConvTransposeForwardBatched(benchmark::State& state) {
  const std::int64_t batch = state.range(0);
  util::Rng rng(6);
  nn::ConvTranspose2d deconv(16, 8, 4, 2, 1, rng);
  const Tensor input = Tensor::uniform({batch, 16, 8, 8}, rng, -1.0f, 1.0f);
  for (auto _ : state) {
    const Tensor& out = deconv.forward(input);
    benchmark::DoNotOptimize(out.raw());
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_ConvTransposeForwardBatched)->Arg(8)->Arg(32);

void BM_ConvBackward(benchmark::State& state) {
  util::Rng rng(4);
  nn::Conv2d conv(8, 16, 3, 1, 1, rng);
  const Tensor input = Tensor::uniform({4, 8, 16, 16}, rng, -1.0f, 1.0f);
  const Tensor out = conv.forward(input);
  for (auto _ : state) {
    conv.zero_grad();
    const Tensor& gx = conv.backward(out);
    benchmark::DoNotOptimize(gx.raw());
  }
}
BENCHMARK(BM_ConvBackward);

// Per-layer wall times of one Sequential, summed over the iterations that
// run its forward and backward through this.
class LayerTimes {
 public:
  explicit LayerTimes(nn::Sequential& net)
      : net_(net), fwd_ms_(net.size(), 0.0), bwd_ms_(net.size(), 0.0) {}

  const Tensor& forward(const Tensor& x) {
    const Tensor* a = &x;
    for (std::size_t i = 0; i < net_.size(); ++i) {
      const std::uint64_t t0 = util::prof::now_ns();
      a = &net_.layer(i).forward(*a);
      fwd_ms_[i] += ms_since(t0);
    }
    return *a;
  }

  const Tensor& backward(const Tensor& g) {
    const Tensor* d = &g;
    for (std::size_t i = net_.size(); i-- > 0;) {
      const std::uint64_t t0 = util::prof::now_ns();
      d = &net_.layer(i).backward(*d);
      bwd_ms_[i] += ms_since(t0);
    }
    return *d;
  }

  /// Counters <prefix>fwd<i>_<layer> and <prefix>bwd<i>_<layer>, in ms per
  /// iteration.
  void report(benchmark::State& state, const std::string& prefix) const {
    for (std::size_t i = 0; i < net_.size(); ++i) {
      char layer[48];
      std::snprintf(layer, sizeof layer, "%02zu_%s", i,
                    net_.layer(i).name().c_str());
      state.counters[prefix + "fwd" + layer] =
          benchmark::Counter(fwd_ms_[i], benchmark::Counter::kAvgIterations);
      state.counters[prefix + "bwd" + layer] =
          benchmark::Counter(bwd_ms_[i], benchmark::Counter::kAvgIterations);
    }
  }

 private:
  static double ms_since(std::uint64_t t0) {
    return static_cast<double>(util::prof::now_ns() - t0) * 1e-6;
  }

  nn::Sequential& net_;
  std::vector<double> fwd_ms_;
  std::vector<double> bwd_ms_;
};

// Per-layer probe of the Cifar CNN: full training steps (forward through
// every layer, backward through every layer) at batch range(0), with each
// layer's call timed inside the step, so the allocator sees the same
// pattern as in client training. Batch 16 is ZKA step 2 on cifar-zkar
// (|S| = 16), batch 64 the eval batch. Counters are ms per step, named
// fwd<i>_<layer> and bwd<i>_<layer>.
void BM_CifarStepByLayer(benchmark::State& state) {
  const std::int64_t batch = state.range(0);
  util::Rng rng(7);
  const auto net = models::make_cifar_cnn(rng);
  const auto spec = models::cifar_spec();
  const Tensor x = Tensor::uniform(
      {batch, spec.channels, spec.height, spec.width}, rng, -1.0f, 1.0f);
  const Tensor g =
      Tensor::uniform({batch, spec.num_classes}, rng, -0.01f, 0.01f);
  LayerTimes times(*net);
  for (auto _ : state) {
    times.forward(x);
    benchmark::DoNotOptimize(times.backward(g).raw());
  }
  times.report(state, "");
}
BENCHMARK(BM_CifarStepByLayer)
    ->Arg(16)
    ->Arg(64)
    ->Unit(benchmark::kMillisecond);

// Per-layer probe of one ZKA-G generator epoch on Fashion, as
// ZkaGAttack::synthesize runs it at |S| = 24: G(Z), the frozen classifier,
// the ascent loss, backward through the classifier into the generator, the
// generator's step. Counters gen<fwd|bwd><i>_<layer> and
// cls<fwd|bwd><i>_<layer>, in ms per epoch.
void BM_GeneratorEpochByLayer(benchmark::State& state) {
  const auto spec = models::fashion_spec();
  util::Rng rng(8);
  auto classifier = models::make_fashion_cnn(rng);
  classifier->freeze();
  auto generator = models::make_tcnn_generator(spec, 64, rng);
  nn::Sgd optimizer(*generator, 0.01f);
  nn::SoftmaxCrossEntropy loss(-1.0f);
  const Tensor latent = Tensor::normal({24, 64}, rng);
  const std::vector<std::int64_t> decoy(24, 3);
  LayerTimes gen_times(*generator);
  LayerTimes cls_times(*classifier);
  for (auto _ : state) {
    optimizer.zero_grad();
    loss.forward(cls_times.forward(gen_times.forward(latent)), decoy);
    benchmark::DoNotOptimize(
        gen_times.backward(cls_times.backward(loss.backward())).raw());
    optimizer.step();
  }
  gen_times.report(state, "gen");
  cls_times.report(state, "cls");
}
BENCHMARK(BM_GeneratorEpochByLayer)->Unit(benchmark::kMillisecond);

// Test-set evaluation as Simulation::run does it each round, at the test
// sizes of bench/e2e's cifar-zkar (250) and fashion-zkag (300) workloads.
// Arg 0 is the task (0 Fashion, 1 Cifar); arg 1 is the pool eval's batch,
// or 0 for the serial batch-64 evaluation on one model. One eval before
// the timed loop sizes every replica's buffers. fl::kEvalBatch is chosen
// from this sweep (results/perf_breakdown.md).
void BM_Eval(benchmark::State& state) {
  const auto task =
      state.range(0) == 0 ? models::Task::kFashion : models::Task::kCifar;
  const std::int64_t batch = state.range(1);
  const auto factory = models::task_model_factory(task);
  const auto test = data::make_synthetic_dataset(
      task, task == models::Task::kCifar ? 250 : 300, 3);
  const std::vector<float> params = nn::get_flat_params(*factory(4));
  data::ReplicaSet replicas(factory);
  const auto serial = factory(5);
  const auto eval = [&] {
    return batch == 0 ? fl::evaluate_accuracy(*serial, params, test)
                      : fl::evaluate_accuracy(replicas, params, test, batch);
  };
  const double accuracy = eval();
  for (auto _ : state) {
    const double a = eval();
    if (a != accuracy) state.SkipWithError("accuracy changed between evals");
    benchmark::DoNotOptimize(a);
  }
  state.counters["accuracy"] = accuracy;
}
BENCHMARK(BM_Eval)
    ->ArgsProduct({{0, 1}, {0, 1, 2, 4, 8}})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
