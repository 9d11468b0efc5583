// Shared plumbing for the paper-reproduction bench binaries.
//
// Every bench accepts:
//   --full            paper-scale run (100 clients, 3 repetitions, long
//                     training) instead of the quick single-core default
//   --runs N          repetitions (paper: 3)
//   --rounds N        FL rounds per run
//   --train-size N    training-set size
//   --seed S          base seed
//   --task fashion|cifar|all
//   --csv PATH        also write the table as CSV
//   --trace PATH      run with the util/prof runtime profiler on and write
//                     a Chrome trace-event JSON (load in Perfetto)
//
// The table (and its --csv copy) is the bench's reproduction result; the
// trace is its per-phase cost. Timing is bench/e2e's job.
//
// The quick defaults are sized so the whole bench suite regenerates every
// table and figure in tens of minutes on one CPU core; shapes (who wins,
// rough factors, crossovers) are what is being reproduced, not absolute
// GPU-scale numbers — see EXPERIMENTS.md.
#pragma once

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "core/zka_options.h"
#include "fl/experiment.h"
#include "util/cli.h"
#include "util/prof.h"
#include "util/table.h"

namespace zka::bench {

struct BenchScale {
  int runs = 1;
  std::int64_t num_clients = 50;
  std::int64_t clients_per_round = 10;
  std::int64_t rounds_fashion = 10;
  std::int64_t rounds_cifar = 20;
  std::int64_t train_fashion = 800;
  std::int64_t train_cifar = 1000;
  std::int64_t test_fashion = 300;
  std::int64_t test_cifar = 250;
  std::int64_t eval_every_cifar = 2;
  std::uint64_t seed = 1;
};

inline BenchScale scale_from_cli(const util::CliArgs& args) {
  BenchScale s;
  if (args.get_bool("full", false)) {
    // Paper scale (Sec. V-A): 100 clients, 10 sampled, 10% of the datasets,
    // 3 repetitions.
    s.runs = 3;
    s.num_clients = 100;
    s.rounds_fashion = 60;
    s.rounds_cifar = 60;
    s.train_fashion = 6000;
    s.train_cifar = 5000;
    s.test_fashion = 1000;
    s.test_cifar = 1000;
    s.eval_every_cifar = 1;
  }
  s.runs = args.get_int("runs", s.runs);
  s.seed = static_cast<std::uint64_t>(args.get_int64("seed", 1));
  const std::int64_t rounds = args.get_int64("rounds", 0);
  if (rounds > 0) {
    s.rounds_fashion = rounds;
    s.rounds_cifar = rounds;
  }
  const std::int64_t train = args.get_int64("train-size", 0);
  if (train > 0) {
    s.train_fashion = train;
    s.train_cifar = train;
  }
  return s;
}

inline fl::SimulationConfig make_config(models::Task task,
                                        const BenchScale& scale,
                                        const std::string& defense,
                                        double beta = 0.5) {
  fl::SimulationConfig config;
  config.task = task;
  config.num_clients = scale.num_clients;
  config.clients_per_round = scale.clients_per_round;
  config.malicious_fraction = 0.2;  // paper: adversary controls 20%
  config.beta = beta;
  config.defense = defense;
  config.defense_f = 2;  // 20% of K = 10
  config.seed = scale.seed;
  if (task == models::Task::kFashion) {
    config.rounds = scale.rounds_fashion;
    config.train_size = scale.train_fashion;
    config.test_size = scale.test_fashion;
  } else {
    config.rounds = scale.rounds_cifar;
    config.train_size = scale.train_cifar;
    config.test_size = scale.test_cifar;
    config.eval_every = scale.eval_every_cifar;
  }
  return config;
}

inline core::ZkaOptions default_zka_options(models::Task task) {
  core::ZkaOptions zka;
  zka.synthetic_size = task == models::Task::kFashion ? 24 : 16;
  zka.synthesis_epochs = 4;
  zka.synthesis_lr = 0.05f;
  zka.latent_dim = 64;
  // classifier (step-2) options keep the tuned library defaults:
  // epochs 5, lr 0.01, lambda 8 (see core/adversarial_trainer.h).
  return zka;
}

inline std::vector<models::Task> tasks_from_cli(const util::CliArgs& args) {
  const std::string task = args.get_string("task", "all");
  if (task == "fashion") return {models::Task::kFashion};
  if (task == "cifar") return {models::Task::kCifar};
  return {models::Task::kFashion, models::Task::kCifar};
}

inline std::string fmt_or_na(double value, int precision = 2) {
  return std::isnan(value) ? "NA" : util::Table::fmt(value, precision);
}

inline void maybe_write_csv(const util::CliArgs& args,
                            const util::Table& table) {
  const std::string path = args.get_string("csv", "");
  if (!path.empty()) {
    table.write_csv(path);
    std::printf("wrote %s\n", path.c_str());
  }
}

/// `--trace PATH`: constructing it switches the util/prof runtime profiler
/// on before any timed work; write() saves the whole run as a Chrome
/// trace-event file (load in Perfetto). Both are no-ops without the flag.
class Trace {
 public:
  explicit Trace(const util::CliArgs& args)
      : path_(args.get_string("trace", "")) {
    if (!path_.empty()) util::prof::set_enabled(true);
  }

  void write() const {
    if (path_.empty()) return;
    util::prof::write_chrome_trace(path_);
    std::printf("wrote %s (load in https://ui.perfetto.dev)\n", path_.c_str());
  }

 private:
  std::string path_;
};

}  // namespace zka::bench
