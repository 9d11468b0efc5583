// Reproduces Table III: ASR under the Bulyan defense as data heterogeneity
// varies (Dirichlet beta in {0.1, 0.5, 0.9}), both tasks.
#include "bench_common.h"

int main(int argc, char** argv) {
  using namespace zka;
  const util::CliArgs args(argc, argv);
  const bench::BenchScale scale = bench::scale_from_cli(args);
  const bench::Trace trace(args);

  const fl::AttackKind attacks[] = {
      fl::AttackKind::kFang, fl::AttackKind::kLie, fl::AttackKind::kMinMax,
      fl::AttackKind::kZkaR, fl::AttackKind::kZkaG};
  const double betas[] = {0.1, 0.5, 0.9};

  util::Table table({"Dataset", "beta", "Attack", "acc_natk (%)", "ASR (%)"});
  fl::BaselineCache baselines;

  for (const models::Task task : bench::tasks_from_cli(args)) {
    for (const double beta : betas) {
      for (const fl::AttackKind attack : attacks) {
        const fl::SimulationConfig config =
            bench::make_config(task, scale, "bulyan", beta);
        const fl::ExperimentOutcome outcome = fl::run_experiment(
            config, attack, bench::default_zka_options(task), scale.runs,
            baselines);
        table.add_row({models::task_name(task), util::Table::fmt(beta, 1),
                       fl::attack_kind_name(attack),
                       util::Table::fmt(outcome.acc_natk, 1),
                       util::Table::fmt(outcome.asr, 2)});
        std::printf("[table3] %s/beta=%.1f/%s: ASR %.2f%%\n",
                    models::task_name(task), beta,
                    fl::attack_kind_name(attack), outcome.asr);
        std::fflush(stdout);
      }
    }
  }
  table.print(
      "\nTable III — ASR vs data heterogeneity (Bulyan defense)");
  bench::maybe_write_csv(args, table);
  trace.write();
  return 0;
}
