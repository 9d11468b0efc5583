#include "fl/experiment.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <sstream>
#include <stdexcept>

#include "attack/fang.h"
#include "attack/free_rider.h"
#include "attack/nan_injection.h"
#include "attack/label_flip.h"
#include "attack/lie.h"
#include "attack/minmax.h"
#include "attack/random_weights.h"
#include "core/adaptive_zka.h"
#include "core/real_data.h"
#include "core/zka_g.h"
#include "core/zka_r.h"
#include "fl/metrics.h"
#include "util/check.h"
#include "util/stats.h"

namespace zka::fl {

namespace {

constexpr AttackKindNames kAttackKinds[] = {
    {AttackKind::kNone, "none", "None"},
    {AttackKind::kFang, "fang", "Fang"},
    {AttackKind::kLie, "lie", "LIE"},
    {AttackKind::kMinMax, "minmax", "Min-Max"},
    {AttackKind::kZkaR, "zka-r", "ZKA-R"},
    {AttackKind::kZkaG, "zka-g", "ZKA-G"},
    {AttackKind::kZkaRStatic, "zka-r-static", "ZKA-R-static"},
    {AttackKind::kZkaGStatic, "zka-g-static", "ZKA-G-static"},
    {AttackKind::kRealData, "real-data", "Real-data"},
    {AttackKind::kRandomWeights, "random-weights", "RandomWeights"},
    {AttackKind::kLabelFlip, "label-flip", "LabelFlip"},
    {AttackKind::kMinSum, "minsum", "Min-Sum"},
    {AttackKind::kFreeRider, "free-rider", "FreeRider"},
    {AttackKind::kNaNInjection, "nan-injection", "NaNInjection"},
    {AttackKind::kZkaRAdaptive, "zka-r-adaptive", "ZKA-R-adaptive"},
    {AttackKind::kZkaGAdaptive, "zka-g-adaptive", "ZKA-G-adaptive"},
    {AttackKind::kFangKrum, "fang-krum", "Fang-Krum"},
};

}  // namespace

std::span<const AttackKindNames> attack_kinds() noexcept {
  return kAttackKinds;
}

const char* attack_kind_name(AttackKind kind) noexcept {
  for (const AttackKindNames& entry : kAttackKinds) {
    if (entry.kind == kind) return entry.display_name;
  }
  return "?";
}

AttackKind parse_attack_kind(const std::string& name) {
  for (const AttackKindNames& entry : kAttackKinds) {
    if (name == entry.cli_name) return entry.kind;
  }
  throw std::invalid_argument("unknown attack: " + name);
}

std::unique_ptr<attack::Attack> make_attack(AttackKind kind,
                                            const Simulation& sim,
                                            const core::ZkaOptions& zka,
                                            std::uint64_t seed) {
  const models::Task task = sim.config().task;
  switch (kind) {
    case AttackKind::kNone:
      return nullptr;
    case AttackKind::kFang:
      return std::make_unique<attack::FangAttack>(seed);
    case AttackKind::kLie:
      return std::make_unique<attack::LieAttack>();
    case AttackKind::kMinMax:
      return std::make_unique<attack::MinMaxAttack>();
    case AttackKind::kZkaR:
      return std::make_unique<core::ZkaRAttack>(task, zka, seed);
    case AttackKind::kZkaG:
      return std::make_unique<core::ZkaGAttack>(task, zka, seed);
    case AttackKind::kZkaRStatic: {
      core::ZkaOptions opts = zka;
      opts.train_synthesis = false;
      return std::make_unique<core::ZkaRAttack>(task, opts, seed);
    }
    case AttackKind::kZkaGStatic: {
      core::ZkaOptions opts = zka;
      opts.train_synthesis = false;
      return std::make_unique<core::ZkaGAttack>(task, opts, seed);
    }
    case AttackKind::kRealData:
      return std::make_unique<core::RealDataAttack>(task, sim.malicious_data(),
                                                    zka, seed);
    case AttackKind::kRandomWeights:
      return std::make_unique<attack::RandomWeightsAttack>(0.5f, seed);
    case AttackKind::kLabelFlip:
      return std::make_unique<attack::LabelFlipAttack>(
          sim.malicious_data(), sim.config().client, seed);
    case AttackKind::kMinSum:
      return std::make_unique<attack::MinSumAttack>();
    case AttackKind::kFreeRider:
      return std::make_unique<attack::FreeRiderAttack>(0.5, seed);
    case AttackKind::kNaNInjection:
      return std::make_unique<attack::NaNInjectionAttack>();
    case AttackKind::kZkaRAdaptive:
      return std::make_unique<core::AdaptiveZkaAttack>(
          std::make_unique<core::ZkaRAttack>(task, zka, seed),
          core::AdaptiveOptions{});
    case AttackKind::kZkaGAdaptive:
      return std::make_unique<core::AdaptiveZkaAttack>(
          std::make_unique<core::ZkaGAttack>(task, zka, seed),
          core::AdaptiveOptions{});
    case AttackKind::kFangKrum:
      return std::make_unique<attack::FangKrumAttack>(
          sim.config().defense_f);
  }
  throw std::invalid_argument("make_attack: bad kind");
}

std::string BaselineCache::key(const SimulationConfig& config) {
  std::ostringstream key;
  // Floating-point fields go in as exact bit patterns: the default ostream
  // formatting rounds to 6 significant digits, which silently collided
  // configs differing past that precision.
  key << models::task_name(config.task) << '/' << config.seed << '/'
      << config.rounds << '/' << config.train_size << '/' << config.test_size
      << '/' << std::bit_cast<std::uint64_t>(config.beta) << '/'
      << config.num_clients << '/' << config.clients_per_round << '/'
      << std::bit_cast<std::uint32_t>(config.client.learning_rate) << '/'
      << config.client.local_epochs << '/' << config.client.batch_size << '/'
      << config.eval_every << '/' << config.population << '/'
      << config.samples_per_client;
  // memory_budget_bytes is deliberately absent: streaming ingestion is
  // bitwise-identical to the buffered path, so the budget cannot change a
  // baseline accuracy.
  return key.str();
}

double BaselineCache::attack_free_accuracy(SimulationConfig config) {
  config.defense = "fedavg";
  config.malicious_fraction = 0.0;
  const std::string cache_key = key(config);
  const auto it = cache_.find(cache_key);
  if (it != cache_.end()) return it->second;
  Simulation sim(config);
  const SimulationResult result = sim.run(nullptr);
  cache_[cache_key] = result.max_accuracy;
  return result.max_accuracy;
}

ExperimentOutcome run_experiment(SimulationConfig config, AttackKind kind,
                                 const core::ZkaOptions& zka, int runs,
                                 BaselineCache& baselines) {
  if (runs <= 0) throw std::invalid_argument("run_experiment: runs <= 0");
  // The outcome's accuracy/ASR means assume evaluated rounds; with
  // eval_every == 0 max_accuracy stays NaN and would poison them silently.
  ZKA_CHECK(config.eval_every > 0,
            "run_experiment: eval_every=%lld disables evaluation, so the "
            "accuracy metrics would all be NaN",
            static_cast<long long>(config.eval_every));
  ExperimentOutcome outcome;
  outcome.runs = runs;
  std::vector<double> asrs;
  util::RunningStat natk_stat;
  util::RunningStat acc_stat;
  util::RunningStat dpr_stat;
  bool dpr_defined = false;
  for (int r = 0; r < runs; ++r) {
    SimulationConfig run_config = config;
    run_config.seed = config.seed + static_cast<std::uint64_t>(r);
    const double acc_natk = baselines.attack_free_accuracy(run_config);
    natk_stat.push(acc_natk * 100.0);

    Simulation sim(run_config);
    const auto attack =
        make_attack(kind, sim, zka, run_config.seed ^ 0xa77acc);
    const SimulationResult result = sim.run(attack.get());
    outcome.peak_update_bytes =
        std::max(outcome.peak_update_bytes, result.peak_update_bytes);
    acc_stat.push(result.max_accuracy * 100.0);
    asrs.push_back(attack_success_rate(acc_natk, result.max_accuracy));
    const double dpr = result.dpr();
    if (!std::isnan(dpr)) {
      dpr_defined = true;
      dpr_stat.push(dpr);
    }
  }
  outcome.acc_natk = natk_stat.mean();
  outcome.max_acc = acc_stat.mean();
  outcome.asr = util::mean(std::span<const double>(asrs));
  outcome.asr_stddev = util::stddev(std::span<const double>(asrs));
  outcome.dpr = dpr_defined ? dpr_stat.mean() : std::nan("");
  return outcome;
}

}  // namespace zka::fl
