// Production cross-device sweep: ASR/DPR at sub-1% attacker fractions as
// the population grows 10^3 -> 10^6 (Shejwalkar et al.'s deployment
// regime), exercising the lazy client registry, O(k) Floyd sampling, and
// streaming update ingestion under a server memory budget.
//
// Extra flags on top of bench_common:
//   --population-max N   largest population in the sweep (default 1000000)
//   --cpr N              clients sampled per round (default 200)
//   --budget-mb N        server update-memory budget for the streaming
//                        (FedAvg) runs, in MiB (default 2)
//
// Each row reports acc, ASR, DPR and peak live update KiB; the process's
// peak RSS is printed after the sweep. The bench fails
// (contract violation) if a streaming run's peak live update bytes ever
// exceed the configured budget — that bound is the point of the engine.
#include <sys/resource.h>

#include "bench_common.h"

int main(int argc, char** argv) {
  using namespace zka;
  const util::CliArgs args(argc, argv);
  bench::BenchScale scale = bench::scale_from_cli(args);
  scale.rounds_fashion = args.get_int64("rounds", 3);
  const bench::Trace trace(args);

  const std::int64_t population_max =
      args.get_int64("population-max", 1000000);
  const std::int64_t cpr = args.get_int64("cpr", 200);
  const std::size_t budget_bytes =
      static_cast<std::size_t>(args.get_int64("budget-mb", 2)) * (1u << 20);

  const models::Task task = models::Task::kFashion;
  const double fractions[] = {0.001, 0.005, 0.01};  // 0.1% .. 1% sybils
  // mkrum-sketch = mkrum with a JL sketch (defense/sketch.h): the
  // one-shot ranking streams, so it runs under the same memory budget
  // as FedAvg — the exact mkrum rows keep the unbounded buffered path.
  const char* defenses[] = {"fedavg", "mkrum", "mkrum-sketch"};

  util::Table table({"Population", "Defense", "frac (%)", "acc (%)",
                     "ASR (%)", "DPR (%)", "peak upd (KiB)"});
  fl::BaselineCache baselines;

  for (std::int64_t population = 1000; population <= population_max;
       population *= 10) {
    for (const char* defense : defenses) {
      for (const double fraction : fractions) {
        const bool sketched = std::string(defense) == "mkrum-sketch";
        fl::SimulationConfig config = bench::make_config(
            task, scale, sketched ? "mkrum" : defense);
        config.population = population;
        config.clients_per_round = std::min(cpr, population);
        config.samples_per_client = 32;
        config.malicious_fraction = fraction;
        // Sub-1% of a small population floors to zero attackers; that
        // point runs as a clean baseline instead of skipping or crashing.
        // Exact mKrum needs the round's full update matrix (pairwise
        // distances), so the budget constrains the streaming-capable runs
        // only: FedAvg, and mkrum through the sketched selection path.
        config.sketch_dim = sketched ? 256 : 0;
        const bool streams = sketched || std::string(defense) == "fedavg";
        config.memory_budget_bytes = streams ? budget_bytes : 0;
        config.eval_every = config.rounds;  // evaluate the final round only

        char label[96];
        std::snprintf(label, sizeof label, "pop%lld/%s/f%.3f",
                      static_cast<long long>(population), defense, fraction);
        const fl::ExperimentOutcome outcome = fl::run_experiment(
            config, fl::AttackKind::kZkaR, bench::default_zka_options(task),
            scale.runs, baselines);
        ZKA_CHECK(!streams || outcome.peak_update_bytes <= budget_bytes,
                  "%s: streaming run held %zu live update bytes, over the "
                  "%zu-byte budget",
                  label, outcome.peak_update_bytes, budget_bytes);
        table.add_row({std::to_string(population), defense,
                       util::Table::fmt(fraction * 100.0, 1),
                       util::Table::fmt(outcome.max_acc, 1),
                       util::Table::fmt(outcome.asr, 2),
                       bench::fmt_or_na(outcome.dpr),
                       util::Table::fmt(
                           static_cast<double>(outcome.peak_update_bytes) /
                               1024.0,
                           1)});
        std::printf("[production] %s: acc %.1f%%  ASR %.2f%%  peak %.1f KiB\n",
                    label, outcome.max_acc, outcome.asr,
                    static_cast<double>(outcome.peak_update_bytes) / 1024.0);
        std::fflush(stdout);
      }
    }
  }

  struct rusage usage = {};
  getrusage(RUSAGE_SELF, &usage);
  std::printf("peak RSS: %.1f MiB\n",
              static_cast<double>(usage.ru_maxrss) / 1024.0);

  table.print("\nProduction sweep — cross-device scale, sub-1% sybils");
  bench::maybe_write_csv(args, table);
  trace.write();
  return 0;
}
