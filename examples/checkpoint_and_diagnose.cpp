// Operating a federation like a production system: checkpoint the global
// model to disk mid-training, resume from the checkpoint, and watch the
// update-space geometry (the malicious/benign separability a distance
// defense would see) round by round.
//
//   ./checkpoint_and_diagnose [--attack zka-g] [--rounds N] [--out dir]
#include <cstdio>
#include <filesystem>

#include "analysis/update_diagnostics.h"
#include "data/local_sgd.h"
#include "data/partition.h"
#include "data/synthetic.h"
#include "fl/experiment.h"
#include "fl/metrics.h"
#include "nn/serialize.h"
#include "util/cli.h"
#include "util/rng.h"
#include "util/table.h"

namespace {

using namespace zka;

// A miniature server loop built from the public pieces, with checkpoint
// and diagnostics hooks (the canned fl::Simulation hides the round loop).
// Its clients point into its own members, so it is built in place and
// never copied or moved.
struct MiniFederation {
  models::ModelFactory factory;
  data::Dataset train;
  data::Dataset test;
  fl::ClientRegistry clients;  // 40 Dirichlet shards of `train`
  std::int64_t num_malicious = 8;  // 20%
  std::vector<float> global;
  std::vector<float> prev;
  util::Rng rng;
  // The models the clients train on, the attack crafts on and the server
  // evaluates on, one per thread-pool participant.
  data::ReplicaSet replicas;

  explicit MiniFederation(std::uint64_t seed)
      : factory(models::task_model_factory(models::Task::kFashion)),
        train(data::make_synthetic_dataset(models::Task::kFashion, 800, seed)),
        test(data::make_synthetic_dataset(models::Task::kFashion, 250,
                                          seed ^ 0x7e57)),
        clients(train,
                [&] {
                  util::Rng part_rng(seed);
                  return data::dirichlet_partition(train.labels, 10, 40, 0.5,
                                                   part_rng);
                }(),
                data::LocalSgdOptions{}),
        global(nn::get_flat_params(*factory(seed))),
        prev(global),
        rng(seed ^ 0xfeed),
        replicas(factory) {}
  MiniFederation(const MiniFederation&) = delete;
  MiniFederation& operator=(const MiniFederation&) = delete;

  /// One FL round; returns the separability the defense would observe.
  double round(attack::Attack& attack, std::int64_t round_index) {
    const auto sampled = rng.sample_without_replacement(40, 10);
    std::vector<std::vector<float>> updates;
    std::vector<bool> malicious_flags;
    std::vector<std::vector<float>> benign;
    for (const auto c : sampled) {
      const auto id = static_cast<std::int64_t>(c);
      if (id >= num_malicious) {
        benign.emplace_back();
        clients.train(id, global, 7777 + round_index * 97 + c,
                      replicas.mine(), benign.back());
      }
    }
    attack::AttackContext ctx;
    ctx.global_model = global;
    ctx.prev_global_model = prev;
    ctx.benign_updates = attack.needs_benign_updates() ? &benign : nullptr;
    ctx.round = round_index;
    ctx.num_selected = 10;
    ctx.num_malicious_selected =
        static_cast<std::int64_t>(sampled.size() - benign.size());
    ctx.replicas = &replicas;
    std::vector<float> crafted;
    if (ctx.num_malicious_selected > 0) crafted = attack.craft(ctx);

    std::size_t cursor = 0;
    for (const auto c : sampled) {
      const bool mal = static_cast<std::int64_t>(c) < num_malicious;
      malicious_flags.push_back(mal);
      updates.push_back(mal ? crafted : std::move(benign[cursor]));
      if (!mal) ++cursor;
    }
    double separability = 0.0;
    if (ctx.num_malicious_selected > 0) {
      separability =
          analysis::diagnose_updates(updates, malicious_flags).separability();
    }
    // Plain FedAvg server (worst case) to keep the example focused.
    prev = global;
    std::vector<double> acc(global.size(), 0.0);
    for (const auto& u : updates) {
      for (std::size_t i = 0; i < u.size(); ++i) acc[i] += u[i];
    }
    for (std::size_t i = 0; i < global.size(); ++i) {
      global[i] = static_cast<float>(acc[i] / updates.size());
    }
    return separability;
  }

  double accuracy() { return fl::evaluate_accuracy(replicas, global, test); }
};

}  // namespace

int main(int argc, char** argv) {
  const util::CliArgs args(argc, argv);
  const std::int64_t rounds = args.get_int64("rounds", 10);
  const std::uint64_t seed =
      static_cast<std::uint64_t>(args.get_int64("seed", 21));
  const std::string out_dir =
      args.get_string("out", std::filesystem::temp_directory_path().string());
  const std::string checkpoint = out_dir + "/zka_checkpoint.bin";

  MiniFederation fed(seed);
  fl::Simulation dummy_sim([&] {  // only used to materialize the attack
    fl::SimulationConfig config;
    config.num_clients = 10;
    config.clients_per_round = 5;
    config.train_size = 100;
    config.test_size = 50;
    config.malicious_fraction = 0.2;
    config.seed = seed;
    return config;
  }());
  const auto attack = fl::make_attack(
      fl::parse_attack_kind(args.get_string("attack", "zka-g")), dummy_sim,
      core::ZkaOptions{}, seed);

  util::Table table({"round", "accuracy (%)", "separability"});
  const std::int64_t half = rounds / 2;
  for (std::int64_t r = 0; r < half; ++r) {
    const double sep = fed.round(*attack, r);
    table.add_row({std::to_string(r), util::Table::fmt(fed.accuracy() * 100, 1),
                   sep > 0.0 ? util::Table::fmt(sep, 2) : "-"});
  }

  // Checkpoint, then resume into a fresh federation object.
  nn::save_params(checkpoint, fed.global);
  std::printf("checkpointed global model (%zu params) to %s\n",
              fed.global.size(), checkpoint.c_str());
  MiniFederation resumed(seed);
  resumed.global = nn::load_params(checkpoint);
  resumed.prev = resumed.global;

  for (std::int64_t r = half; r < rounds; ++r) {
    const double sep = resumed.round(*attack, r);
    table.add_row({std::to_string(r) + "*",
                   util::Table::fmt(resumed.accuracy() * 100, 1),
                   sep > 0.0 ? util::Table::fmt(sep, 2) : "-"});
  }
  table.print("\nFederation under " + attack->name() +
              " (rows marked * ran after checkpoint resume). "
              "Separability ~1 means the poisoned updates are hidden "
              "inside the benign cloud:");
  std::filesystem::remove(checkpoint);
  return 0;
}
