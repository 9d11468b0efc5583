// Micro-benchmarks backing the paper's Sec. IV-E complexity analysis:
// the per-round cost of crafting a ZKA-R / ZKA-G update vs a benign
// client's local training, plus the |S| sensitivity ablation from
// DESIGN.md. Every benchmark reports wall time and the CPU time of the
// whole process: a craft runs part of its work on the worker pool, which
// the main thread's CPU clock would not count.
#include <benchmark/benchmark.h>

#include <numeric>

#include "core/zka_g.h"
#include "core/zka_r.h"
#include "data/synthetic.h"
#include "fl/registry.h"
#include "nn/module.h"
#include "util/rng.h"

namespace {

using namespace zka;

attack::AttackContext make_context(const std::vector<float>& global,
                                   data::ReplicaSet& replicas) {
  attack::AttackContext ctx;
  ctx.global_model = global;
  ctx.prev_global_model = global;
  ctx.num_selected = 10;
  ctx.num_malicious_selected = 2;
  ctx.replicas = &replicas;
  return ctx;
}

core::ZkaOptions options_with_size(std::int64_t s) {
  core::ZkaOptions zka;
  zka.synthetic_size = s;
  zka.synthesis_epochs = 4;
  return zka;
}

void BM_BenignClientRound(benchmark::State& state) {
  const std::int64_t samples = state.range(0);
  const auto dataset =
      data::make_synthetic_dataset(models::Task::kFashion, samples, 7);
  const auto factory = models::task_model_factory(models::Task::kFashion);
  // One client that owns every sample, trained on a kept replica as the
  // simulation trains it.
  std::vector<std::vector<std::int64_t>> parts(1);
  parts[0].resize(static_cast<std::size_t>(samples));
  std::iota(parts[0].begin(), parts[0].end(), std::int64_t{0});
  const fl::ClientRegistry clients(dataset, std::move(parts), {});
  data::ReplicaSet replicas(factory);
  const std::vector<float> global = nn::get_flat_params(*factory(1));
  std::vector<float> update;
  std::uint64_t seed = 0;
  for (auto _ : state) {
    clients.train(0, global, ++seed, replicas.mine(), update);
    benchmark::DoNotOptimize(update.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_BenignClientRound)
    ->Arg(16)->Arg(32)->Arg(64)
    ->MeasureProcessCPUTime()
    ->UseRealTime();

void BM_ZkaRCraft(benchmark::State& state) {
  const auto factory = models::task_model_factory(models::Task::kFashion);
  const std::vector<float> global = nn::get_flat_params(*factory(1));
  core::ZkaRAttack attack(models::Task::kFashion,
                          options_with_size(state.range(0)), 3);
  data::ReplicaSet replicas(factory);
  const auto ctx = make_context(global, replicas);
  for (auto _ : state) {
    auto update = attack.craft(ctx);
    benchmark::DoNotOptimize(update.data());
  }
}
BENCHMARK(BM_ZkaRCraft)
    ->Arg(16)->Arg(32)->Arg(64)
    ->MeasureProcessCPUTime()
    ->UseRealTime();

void BM_ZkaGCraft(benchmark::State& state) {
  const auto factory = models::task_model_factory(models::Task::kFashion);
  const std::vector<float> global = nn::get_flat_params(*factory(1));
  core::ZkaGAttack attack(models::Task::kFashion,
                          options_with_size(state.range(0)), 3);
  data::ReplicaSet replicas(factory);
  const auto ctx = make_context(global, replicas);
  for (auto _ : state) {
    auto update = attack.craft(ctx);
    benchmark::DoNotOptimize(update.data());
  }
}
BENCHMARK(BM_ZkaGCraft)
    ->Arg(16)->Arg(32)->Arg(64)
    ->MeasureProcessCPUTime()
    ->UseRealTime();

void BM_ZkaRFilterKernelSweep(benchmark::State& state) {
  const auto factory = models::task_model_factory(models::Task::kFashion);
  const std::vector<float> global = nn::get_flat_params(*factory(1));
  core::ZkaOptions zka = options_with_size(16);
  zka.filter_kernel = state.range(0);
  core::ZkaRAttack attack(models::Task::kFashion, zka, 3);
  data::ReplicaSet replicas(factory);
  const auto ctx = make_context(global, replicas);
  for (auto _ : state) {
    auto update = attack.craft(ctx);
    benchmark::DoNotOptimize(update.data());
  }
}
BENCHMARK(BM_ZkaRFilterKernelSweep)
    ->Arg(3)->Arg(5)->Arg(7)
    ->MeasureProcessCPUTime()
    ->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
