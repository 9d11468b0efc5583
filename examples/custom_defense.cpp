// Extending the library: implement your own robust aggregation rule
// against the public defense::Aggregator interface and evaluate it against
// the zero-knowledge attacks, side by side with the built-in defenses.
//
// The example defense ("GeoTrim") clips every update to the median
// deviation ball (like NormClipping) and then takes a coordinate-wise
// trimmed mean — a cheap hybrid of the two statistic defenses.
//
//   ./custom_defense [--attack zka-g] [--rounds N]
#include <algorithm>
#include <cmath>
#include <cstdio>

#include "data/partition.h"
#include "defense/statistic.h"
#include "tensor/reduce.h"
#include "fl/metrics.h"
#include "fl/experiment.h"
#include "util/cli.h"
#include "util/stats.h"
#include "util/table.h"

namespace {

using namespace zka;

class GeoTrim : public defense::Aggregator {
 public:
  explicit GeoTrim(std::size_t trim) : trim_(trim) {}

  defense::AggregationResult do_aggregate(
      std::span<const defense::UpdateView> updates,
      std::span<const std::int64_t> weights) override {
    defense::validate_updates(updates, weights);
    const std::size_t n = updates.size();
    const std::size_t dim = updates.front().size();

    // Center on the coordinate-wise median.
    defense::Median median_rule;
    const defense::Update center =
        median_rule.aggregate(updates, weights).model;

    // Clip each update to the median deviation norm.
    std::vector<double> norms(n);
    for (std::size_t k = 0; k < n; ++k) {
      norms[k] = std::sqrt(tensor::squared_distance(updates[k], center));
    }
    const double radius = util::median(std::vector<double>(norms));
    std::vector<defense::Update> clipped;
    clipped.reserve(n);
    for (const defense::UpdateView u : updates) {
      clipped.emplace_back(u.begin(), u.end());
    }
    for (std::size_t k = 0; k < n; ++k) {
      if (norms[k] <= radius || norms[k] == 0.0) continue;
      const double scale = radius / norms[k];
      for (std::size_t i = 0; i < dim; ++i) {
        clipped[k][i] = center[i] +
                        static_cast<float>(scale * (updates[k][i] -
                                                    center[i]));
      }
    }
    // Then trimmed-mean the clipped updates.
    defense::TrimmedMean trimmed(trim_);
    return trimmed.aggregate(defense::as_views(clipped), weights);
  }

  bool selects_clients() const noexcept override { return false; }
  std::string name() const override { return "GeoTrim"; }

 private:
  std::size_t trim_;
};

// Runs one FL simulation with an externally supplied aggregator by
// replaying the library pieces the Simulation class wires together. This
// demonstrates that the building blocks (clients, attacks, metrics) are
// usable outside the canned Simulation when you need a custom server.
double run_with_aggregator(defense::Aggregator& aggregator,
                           fl::AttackKind kind, std::int64_t rounds,
                           std::uint64_t seed, double* out_natk) {
  fl::SimulationConfig config;
  config.num_clients = 40;
  config.clients_per_round = 10;
  config.malicious_fraction = 0.2;
  config.rounds = rounds;
  config.train_size = 800;
  config.test_size = 250;
  config.seed = seed;

  fl::BaselineCache baselines;
  *out_natk = baselines.attack_free_accuracy(config);

  // The canned simulation accepts named defenses only, so for the custom
  // rule we run the round loop manually on top of the public pieces.
  config.defense = "fedavg";  // placeholder; aggregation happens below
  fl::Simulation sim(config);
  const auto attack = fl::make_attack(kind, sim, core::ZkaOptions{}, seed);

  const auto factory = models::task_model_factory(config.task);
  std::vector<float> global = nn::get_flat_params(*factory(seed));
  std::vector<float> prev = global;

  std::vector<fl::Client> clients;
  {
    util::Rng rng(seed);
    auto parts = data::dirichlet_partition(sim.train_data().labels, 10,
                                           config.num_clients, 0.5, rng);
    for (std::int64_t c = 0; c < config.num_clients; ++c) {
      clients.emplace_back(c, sim.train_data(),
                           parts[static_cast<std::size_t>(c)], factory,
                           config.client);
    }
  }

  util::Rng rng(seed ^ 0xc0ffee);
  double best = 0.0;
  for (std::int64_t round = 0; round < rounds; ++round) {
    const auto sampled = rng.sample_without_replacement(
        static_cast<std::size_t>(config.num_clients),
        static_cast<std::size_t>(config.clients_per_round));
    std::vector<defense::UpdateView> updates;
    std::vector<std::int64_t> weights;
    std::vector<defense::Update> benign;
    for (const auto c : sampled) {
      if (static_cast<std::int64_t>(c) >= sim.num_malicious()) {
        benign.push_back(clients[c].train(global, seed + round * 131 + c));
      }
    }
    attack::AttackContext ctx;
    ctx.global_model = global;
    ctx.prev_global_model = prev;
    ctx.benign_updates = attack->needs_benign_updates() ? &benign : nullptr;
    ctx.round = round;
    ctx.num_selected = config.clients_per_round;
    ctx.num_malicious_selected =
        static_cast<std::int64_t>(sampled.size() - benign.size());
    defense::Update malicious;
    if (ctx.num_malicious_selected > 0) malicious = attack->craft(ctx);

    std::size_t cursor = 0;
    for (const auto c : sampled) {
      if (static_cast<std::int64_t>(c) < sim.num_malicious()) {
        updates.emplace_back(malicious);  // shared view, no sybil copies
      } else {
        updates.emplace_back(benign[cursor++]);
      }
      weights.push_back(std::max<std::int64_t>(clients[c].num_samples(), 1));
    }
    prev = global;
    global = aggregator.aggregate(updates, weights).model;
    best = std::max(best,
                    fl::evaluate_accuracy(factory, global, sim.test_data()));
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  const util::CliArgs args(argc, argv);
  const auto kind = fl::parse_attack_kind(args.get_string("attack", "zka-g"));
  const std::int64_t rounds = args.get_int64("rounds", 12);
  const std::uint64_t seed =
      static_cast<std::uint64_t>(args.get_int64("seed", 5));

  GeoTrim custom(2);
  double natk = 0.0;
  const double acc_custom =
      run_with_aggregator(custom, kind, rounds, seed, &natk);

  util::Table table({"Defense", "max acc (%)", "ASR (%)"});
  table.add_row({"GeoTrim (custom)", util::Table::fmt(acc_custom * 100, 1),
                 util::Table::fmt(
                     fl::attack_success_rate(natk, acc_custom), 1)});
  for (const char* name : {"median", "trmean", "mkrum"}) {
    auto builtin = defense::make_aggregator(name, {.num_byzantine = 2});
    const double acc =
        run_with_aggregator(*builtin, kind, rounds, seed, &natk);
    table.add_row({std::string(name), util::Table::fmt(acc * 100, 1),
                   util::Table::fmt(fl::attack_success_rate(natk, acc), 1)});
  }
  std::printf("Custom defense vs built-ins against %s (attack-free "
              "reference %.1f%%):\n",
              fl::attack_kind_name(kind), natk * 100);
  table.print();
  return 0;
}
