// The FL emulator: a population of N clients, K sampled uniformly per
// round, a fraction of them controlled by one adversary, a robust
// aggregation defense on the server, and per-round accuracy /
// defense-selection bookkeeping — the paper's experimental apparatus
// (Sec. V-A), extended to the production cross-device regime
// (populations of 10^5-10^6 devices, a few hundred sampled per round,
// attacker fractions well under 1%; Shejwalkar et al.).
//
// Two population modes share one round loop:
//   * legacy (population == 0): `num_clients` shards materialized eagerly
//     from the IID/Dirichlet partition — the paper's Table-2 setup,
//     bit-compatible with historical seeds;
//   * production (population > 0): a lazy ClientRegistry over a
//     HashedShardSpec computes only the shards sampled this round;
//     sampling is O(K) (Floyd).
// Every round is one stream (defense/aggregator.h): train the first wave,
// craft once, then begin_stream, stream_update wave by wave, replay,
// finish_stream — in waves sized by `memory_budget_bytes` when the
// defense folds, else as one wave of all K clients. A wave's clients train
// on the global thread pool, and the kernels inside each client run as one
// range on its thread (ThreadPool::fork_width). Results do not depend on
// the pool: run() called inside a one-index parallel_for of the global
// pool trains every client serially and returns the same bits.
#pragma once

#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "attack/attack.h"
#include "data/dataset.h"
#include "defense/aggregator.h"
#include "fl/registry.h"
#include "models/models.h"

namespace zka::fl {

struct SimulationConfig {
  models::Task task = models::Task::kFashion;
  std::int64_t num_clients = 100;
  std::int64_t clients_per_round = 10;
  /// Fraction of the population the adversary controls (paper: 0.2).
  /// The attacker count is floor(fraction * population); a small positive
  /// fraction that floors to zero runs as a clean baseline.
  double malicious_fraction = 0.2;
  std::int64_t rounds = 30;
  /// Dirichlet concentration beta; values <= 0 select an IID partition.
  /// Legacy mode only — production mode shards through HashedShardSpec.
  double beta = 0.5;
  std::int64_t train_size = 2000;
  std::int64_t test_size = 500;
  data::LocalSgdOptions client = {};
  /// Aggregator name for defense::make_aggregator.
  std::string defense = "fedavg";
  /// The server's assumed Byzantine bound f (also TRmean's trim count).
  std::size_t defense_f = 2;
  /// JL sketch dimension for the distance-based defenses (krum, mkrum,
  /// bulyan): rank on O(sketch_dim) projections, re-check the selection
  /// boundary exactly at full dimension (defense/sketch.h). Enables the
  /// O(n)-memory streaming server path for one-shot Krum rules; 0 keeps
  /// the exact rules. Ignored by defenses without a sketched path.
  std::size_t sketch_dim = 0;
  /// When set, overrides `defense`: the factory is invoked once at
  /// construction to build the aggregator (e.g. an FlTrust instance that
  /// needs a root dataset, or a user-defined rule).
  std::function<std::unique_ptr<defense::Aggregator>()> custom_defense;
  std::uint64_t seed = 1;
  /// Evaluate test accuracy every k rounds (1 = every round).
  std::int64_t eval_every = 1;

  // ── Production cross-device mode ─────────────────────────────────────
  /// Device population size. 0 (default) selects the legacy eager path
  /// over `num_clients`; > 0 selects the lazy registry path, in which
  /// `num_clients` and `beta` are ignored.
  std::int64_t population = 0;
  /// Per-device shard size in production mode (clamped to train_size).
  std::int64_t samples_per_client = 32;
  /// Server memory budget for update ingestion, in bytes. 0 = unbounded.
  /// With a defense that folds (FedAvg; sketched mkrum/krum via sketch_dim;
  /// median/trmean through tree aggregation) and a data-free attack, the
  /// round trains in waves of floor(budget / update_bytes) clients
  /// (minimum 1; the crafted buffer takes one slot) and folds each wave
  /// before training the next, so at most one wave of updates is live.
  /// Replays (the sketched rules' exact re-check) re-train in waves under
  /// the same budget — training is a pure function of (global, seed), so
  /// the bits match the first pass. Any other round is one wave of
  /// clients_per_round updates; a budget below that throws at run() time.
  std::size_t memory_budget_bytes = 0;
};

struct RoundRecord {
  std::int64_t round = 0;
  /// Test accuracy after this round's aggregation; NaN if not evaluated.
  double accuracy = std::nan("");
  std::int64_t malicious_selected = 0;  // sampled malicious clients
  std::int64_t malicious_passed = 0;    // of those, kept by the defense
  std::int64_t benign_selected = 0;
  std::int64_t benign_passed = 0;
};

struct SimulationResult {
  std::vector<RoundRecord> rounds;
  /// Best / last evaluated test accuracy; NaN (like RoundRecord::accuracy)
  /// when no round was evaluated (eval_every == 0), so an unevaluated run
  /// is distinguishable from a genuine 0%-accuracy run.
  double max_accuracy = std::numeric_limits<double>::quiet_NaN();
  double final_accuracy = std::numeric_limits<double>::quiet_NaN();
  /// The global model after the last round (flat parameter vector).
  std::vector<float> final_model;
  /// Whether the defense reports selections (DPR defined).
  bool defense_selects = false;
  /// Largest number of update-buffer bytes (benign training slots + the
  /// shared crafted buffer) the server held live at any point of the run —
  /// the quantity memory_budget_bytes bounds in streaming rounds.
  std::size_t peak_update_bytes = 0;

  /// Defense pass rate over the whole run (Eq. 5); NaN when undefined.
  double dpr() const noexcept;
  /// Benign analogue of DPR (how often benign updates survive).
  double benign_pass_rate() const noexcept;
};

class Simulation {
 public:
  explicit Simulation(SimulationConfig config);

  /// Runs the configured number of rounds. `attack` may be nullptr for an
  /// attack-free run; otherwise every sampled malicious client submits the
  /// update crafted once per round by `attack`. An attack whose rounded
  /// attacker count is zero runs as a clean baseline (no crafting, zero
  /// malicious selections) rather than throwing.
  SimulationResult run(attack::Attack* attack);

  /// Invoked after every round (e.g. to capture synthesis loss curves).
  void set_round_callback(std::function<void(const RoundRecord&)> callback) {
    round_callback_ = std::move(callback);
  }

  const SimulationConfig& config() const noexcept { return config_; }
  const data::Dataset& train_data() const noexcept { return train_; }
  const data::Dataset& test_data() const noexcept { return test_; }
  /// Population size actually simulated (num_clients in legacy mode,
  /// config.population in production mode).
  std::int64_t population() const noexcept { return registry_->population(); }
  std::int64_t num_malicious() const noexcept { return num_malicious_; }
  const ClientRegistry& registry() const noexcept { return *registry_; }

  /// The pooled real data of the malicious clients' shards — what the
  /// adversary would own if it used its clients' data (RealDataAttack,
  /// LabelFlipAttack). O(num_malicious · shard) — fine in the legacy
  /// regime it serves; data-free attacks never call it, so production-
  /// scale populations do not pay it.
  data::Dataset malicious_data() const;

 private:
  SimulationConfig config_;
  models::ModelFactory factory_;
  data::Dataset train_;
  data::Dataset test_;
  std::optional<ClientRegistry> registry_;
  std::int64_t num_malicious_ = 0;
  std::unique_ptr<defense::Aggregator> aggregator_;
  std::function<void(const RoundRecord&)> round_callback_;
};

}  // namespace zka::fl
