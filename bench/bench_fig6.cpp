// Reproduces Fig. 6: the local synthesis training process converges to a
// (local) optimum within a few epochs — ZKA-R minimizes its ambiguity
// loss, ZKA-G maximizes its decoy cross-entropy. We capture the per-epoch
// loss during an FL run against each of the four defenses on Fashion and
// print the loss series of representative rounds.
#include "bench_common.h"
#include "core/zka_g.h"
#include "core/zka_r.h"

int main(int argc, char** argv) {
  using namespace zka;
  const util::CliArgs args(argc, argv);
  bench::BenchScale scale = bench::scale_from_cli(args);
  const bench::Trace trace(args);
  const std::int64_t epochs = args.get_int64("epochs", 10);
  const char* defenses[] = {"mkrum", "trmean", "bulyan", "median"};

  util::Table table({"Attack", "Defense", "Round", "Epoch", "Loss"});

  for (const bool use_generator : {false, true}) {
    for (const char* defense : defenses) {
      fl::SimulationConfig config =
          bench::make_config(models::Task::kFashion, scale, defense);
      config.rounds = std::min<std::int64_t>(config.rounds, 6);
      config.eval_every = 0;  // only the loss curves matter here

      core::ZkaOptions zka =
          bench::default_zka_options(models::Task::kFashion);
      zka.synthesis_epochs = epochs;

      fl::Simulation sim(config);
      std::unique_ptr<core::ZkaAttack> attack;
      if (use_generator) {
        attack = std::make_unique<core::ZkaGAttack>(models::Task::kFashion,
                                                    zka, scale.seed);
      } else {
        attack = std::make_unique<core::ZkaRAttack>(models::Task::kFashion,
                                                    zka, scale.seed);
      }

      sim.set_round_callback([&](const fl::RoundRecord& record) {
        if (record.malicious_selected == 0) return;
        const auto& losses = attack->synthesis_loss_history();
        for (std::size_t e = 0; e < losses.size(); ++e) {
          table.add_row({use_generator ? "ZKA-G" : "ZKA-R", defense,
                         std::to_string(record.round),
                         std::to_string(e + 1),
                         util::Table::fmt(losses[e], 4)});
        }
      });
      sim.run(attack.get());
      std::printf("[fig6] %s vs %s: captured loss curves\n",
                  use_generator ? "ZKA-G" : "ZKA-R", defense);
      std::fflush(stdout);
    }
  }
  table.print(
      "\nFig. 6 — per-epoch synthesis loss during FL rounds (Fashion). "
      "ZKA-R's loss decreases (minimized), ZKA-G's increases (maximized); "
      "both flatten within a few epochs.");
  bench::maybe_write_csv(args, table);
  trace.write();
  return 0;
}
