// Experiment orchestration shared by the bench binaries: named attack
// construction, repeated runs over seeds, and the paper's aggregate
// metrics (mean ASR / max-accuracy / DPR across repetitions).
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>

#include "core/zka_options.h"
#include "fl/simulation.h"

namespace zka::fl {

enum class AttackKind {
  kNone,
  kFang,
  kLie,
  kMinMax,
  kZkaR,
  kZkaG,
  kZkaRStatic,   // Tab. IV: untrained filter layer
  kZkaGStatic,   // Tab. IV: untrained generator
  kRealData,     // Fig. 7 comparator
  kRandomWeights,  // Sec. IV-A strawman
  kLabelFlip,      // extension baseline
  kMinSum,         // extension: Shejwalkar's other defense-agnostic variant
  kFreeRider,      // extension: stealth reference point (no poisoning goal)
  kNaNInjection,   // extension: degenerate availability attack
  kZkaRAdaptive,   // extension: online lambda adaptation (future work)
  kZkaGAdaptive,
  kFangKrum,       // extension: Fang's Krum-directed, defense-aware variant
};

/// An AttackKind's names: `cli_name` is what parse_attack_kind accepts,
/// `display_name` what attack_kind_name returns (the name() of the attack
/// make_attack builds).
struct AttackKindNames {
  AttackKind kind;
  const char* cli_name;
  const char* display_name;
};

/// Every AttackKind with its names, in enum order.
std::span<const AttackKindNames> attack_kinds() noexcept;

const char* attack_kind_name(AttackKind kind) noexcept;

/// Parses a cli_name ("fang", "zka-r", ...); throws on unknown names.
AttackKind parse_attack_kind(const std::string& name);

/// Materializes an attack instance. `sim` supplies the attacker-owned
/// real data for kRealData/kLabelFlip; `zka` configures the ZKA variants.
std::unique_ptr<attack::Attack> make_attack(AttackKind kind,
                                            const Simulation& sim,
                                            const core::ZkaOptions& zka,
                                            std::uint64_t seed);

struct ExperimentOutcome {
  int runs = 0;
  double acc_natk = 0.0;    // mean attack-free/defense-free max accuracy (%)
  double max_acc = 0.0;     // mean max accuracy under attack (%)
  double asr = 0.0;         // mean attack success rate (%)
  double asr_stddev = 0.0;  // across repetitions
  double dpr = 0.0;         // mean defense pass rate (%); NaN if undefined
  /// Largest SimulationResult::peak_update_bytes across the attacked runs —
  /// what a memory_budget_bytes claim is checked against.
  std::size_t peak_update_bytes = 0;
};

/// Caches the attack-free/defense-free reference accuracy per (task, seed,
/// scale) so a bench sweeping defenses x attacks runs it only once.
class BaselineCache {
 public:
  /// Max accuracy (in [0,1]) of a FedAvg run without attack, at the given
  /// config but with defense forced to "fedavg" and no malicious clients.
  double attack_free_accuracy(SimulationConfig config);

  /// The cache key for `config`. Real-valued fields (beta, learning rate)
  /// are keyed by exact bit pattern, not decimal formatting — two configs
  /// differing past the default 6 significant ostream digits must not
  /// silently share a baseline. Exposed for the collision regression test.
  static std::string key(const SimulationConfig& config);

 private:
  std::map<std::string, double> cache_;
};

/// Runs `runs` repetitions of `config` with the given attack (seeds
/// config.seed, config.seed + 1, ...), using `baselines` for acc_natk.
ExperimentOutcome run_experiment(SimulationConfig config, AttackKind kind,
                                 const core::ZkaOptions& zka, int runs,
                                 BaselineCache& baselines);

}  // namespace zka::fl
