// Reproduces Fig. 7: ASR of the ZKA attacks with synthetic data vs the
// same pipeline fed REAL attacker-owned data (Real-data comparator), all
// four defenses, both tasks. The paper's claim: purpose-built synthetic
// data beats real data.
#include "bench_common.h"

int main(int argc, char** argv) {
  using namespace zka;
  const util::CliArgs args(argc, argv);
  const bench::BenchScale scale = bench::scale_from_cli(args);
  const bench::Trace trace(args);

  const fl::AttackKind attacks[] = {fl::AttackKind::kRealData,
                                    fl::AttackKind::kZkaR,
                                    fl::AttackKind::kZkaG};
  const char* defenses[] = {"mkrum", "trmean", "bulyan", "median"};

  util::Table table({"Dataset", "Defense", "Attack", "ASR (%)"});
  fl::BaselineCache baselines;

  for (const models::Task task : bench::tasks_from_cli(args)) {
    for (const char* defense : defenses) {
      for (const fl::AttackKind attack : attacks) {
        const fl::SimulationConfig config =
            bench::make_config(task, scale, defense);
        const fl::ExperimentOutcome outcome = fl::run_experiment(
            config, attack, bench::default_zka_options(task), scale.runs,
            baselines);
        table.add_row({models::task_name(task), defense,
                       fl::attack_kind_name(attack),
                       util::Table::fmt(outcome.asr, 2)});
        std::printf("[fig7] %s/%s/%s: ASR %.2f%%\n", models::task_name(task),
                    defense, fl::attack_kind_name(attack), outcome.asr);
        std::fflush(stdout);
      }
    }
  }
  table.print(
      "\nFig. 7 — real data + decoy label + L_d vs ZKA synthetic data");
  bench::maybe_write_csv(args, table);
  trace.write();
  return 0;
}
