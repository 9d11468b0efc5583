// Reproduces Table V: ablation of the distance-based regularizer L_d
// (Eq. 3) — ASR and DPR with and without the term, Fashion, all four
// defenses. `--sweep` additionally scans lambda beyond the paper's on/off
// (a DESIGN.md ablation extension).
#include "bench_common.h"

int main(int argc, char** argv) {
  using namespace zka;
  const util::CliArgs args(argc, argv);
  const bench::BenchScale scale = bench::scale_from_cli(args);
  const bench::Trace trace(args);

  const fl::AttackKind attacks[] = {fl::AttackKind::kZkaR,
                                    fl::AttackKind::kZkaG};
  const char* defenses[] = {"mkrum", "trmean", "bulyan", "median"};
  // "without regularization" (0) vs "with" at the tuned default weight
  // (core::AdversarialTrainerOptions{}.lambda).
  const double default_lambda = core::AdversarialTrainerOptions{}.lambda;
  std::vector<double> lambdas = {0.0, default_lambda};
  if (args.get_bool("sweep", false)) {
    lambdas = {0.0, 1.0, 2.0, 4.0, default_lambda, 16.0, 32.0};
  }

  util::Table table(
      {"Attack", "Defense", "lambda", "ASR (%)", "DPR (%)"});
  fl::BaselineCache baselines;

  for (const fl::AttackKind attack : attacks) {
    for (const char* defense : defenses) {
      for (const double lambda : lambdas) {
        const fl::SimulationConfig config =
            bench::make_config(models::Task::kFashion, scale, defense);
        core::ZkaOptions zka =
            bench::default_zka_options(models::Task::kFashion);
        zka.classifier.lambda = lambda;
        const fl::ExperimentOutcome outcome =
            fl::run_experiment(config, attack, zka, scale.runs, baselines);
        table.add_row({fl::attack_kind_name(attack), defense,
                       util::Table::fmt(lambda, 1),
                       util::Table::fmt(outcome.asr, 2),
                       bench::fmt_or_na(outcome.dpr)});
        std::printf("[table5] %s/%s/lambda=%.1f: ASR %.2f%% DPR %s\n",
                    fl::attack_kind_name(attack), defense, lambda,
                    outcome.asr, bench::fmt_or_na(outcome.dpr).c_str());
        std::fflush(stdout);
      }
    }
  }
  table.print(
      "\nTable V — distance-regularizer ablation (Fashion; lambda=0 is "
      "'without regularization')");
  bench::maybe_write_csv(args, table);
  trace.write();
  return 0;
}
