#include "fl/simulation.h"

#include <algorithm>

#include "data/partition.h"
#include "data/synthetic.h"
#include "fl/metrics.h"
#include "util/check.h"
#include "util/prof.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace zka::fl {
namespace {

/// Median of a sample-count list (lower middle for even sizes); 1 when the
/// list is empty. Sorts `counts` in place — callers pass a scratch copy —
/// so the round loop can reuse one buffer instead of allocating a by-value
/// copy every round. Used as the default attacker-reported FedAvg weight.
std::int64_t median_weight(std::vector<std::int64_t>& counts) {
  if (counts.empty()) return 1;
  std::sort(counts.begin(), counts.end());
  return counts[(counts.size() - 1) / 2];
}

}  // namespace

double SimulationResult::dpr() const noexcept {
  if (!defense_selects) return std::nan("");
  std::int64_t selected = 0;
  std::int64_t passed = 0;
  for (const RoundRecord& r : rounds) {
    selected += r.malicious_selected;
    passed += r.malicious_passed;
  }
  return defense_pass_rate(passed, selected);
}

double SimulationResult::benign_pass_rate() const noexcept {
  if (!defense_selects) return std::nan("");
  std::int64_t selected = 0;
  std::int64_t passed = 0;
  for (const RoundRecord& r : rounds) {
    selected += r.benign_selected;
    passed += r.benign_passed;
  }
  return defense_pass_rate(passed, selected);
}

Simulation::Simulation(SimulationConfig config)
    : config_(std::move(config)),
      factory_(models::task_model_factory(config_.task)) {
  const bool production = config_.population > 0;
  const std::int64_t population =
      production ? config_.population : config_.num_clients;
  ZKA_CHECK(config_.clients_per_round > 0 &&
                config_.clients_per_round <= population,
            "Simulation: clients_per_round %lld outside [1, %lld]",
            static_cast<long long>(config_.clients_per_round),
            static_cast<long long>(population));
  // The threat model caps adversarial control at 50% (Sec. III-A).
  ZKA_CHECK(config_.malicious_fraction >= 0.0 &&
                config_.malicious_fraction <= 0.5,
            "Simulation: malicious_fraction %g must be in [0, 0.5]",
            config_.malicious_fraction);

  util::Rng rng(config_.seed);
  train_ = data::make_synthetic_dataset(config_.task, config_.train_size,
                                        rng.split(0xda7a)());
  test_ = data::make_synthetic_dataset(config_.task, config_.test_size,
                                       rng.split(0x7e57)());

  util::Rng part_rng = rng.split(0x9a27);
  if (production) {
    const data::HashedShardSpec spec(train_.size(), population,
                                     config_.samples_per_client, part_rng());
    registry_.emplace(train_, spec, factory_, config_.client);
  } else {
    auto parts =
        config_.beta > 0.0
            ? data::dirichlet_partition(train_.labels, train_.spec.num_classes,
                                        config_.num_clients, config_.beta,
                                        part_rng)
            : data::iid_partition(train_.size(), config_.num_clients,
                                  part_rng);
    registry_.emplace(train_, std::move(parts), factory_, config_.client);
  }

  num_malicious_ = static_cast<std::int64_t>(
      config_.malicious_fraction * static_cast<double>(population));
  defense::AggregatorOptions agg_options;
  agg_options.num_byzantine = config_.defense_f;
  agg_options.sketch_dim = config_.sketch_dim;
  agg_options.memory_budget_bytes = config_.memory_budget_bytes;
  aggregator_ = config_.custom_defense
                    ? config_.custom_defense()
                    : defense::make_aggregator(config_.defense, agg_options);
  ZKA_CHECK(aggregator_ != nullptr,
            "Simulation: custom_defense returned null");
}

data::Dataset Simulation::malicious_data() const {
  std::vector<std::int64_t> indices;
  for (std::int64_t c = 0; c < num_malicious_; ++c) {
    const auto shard = registry_->shard(c);
    indices.insert(indices.end(), shard.begin(), shard.end());
  }
  return train_.subset(indices);
}

SimulationResult Simulation::run(attack::Attack* attack) {
  util::Rng rng(config_.seed ^ 0xf00dULL);
  std::vector<float> global = nn::get_flat_params(*factory_(rng.split(2)()));
  std::vector<float> prev_global = global;

  SimulationResult result;
  result.defense_selects = aggregator_->selects_clients();
  result.rounds.reserve(static_cast<std::size_t>(config_.rounds));

  const std::int64_t population = registry_->population();
  const std::size_t update_bytes = global.size() * sizeof(float);
  // A malicious client is one the adversary controls (by convention the
  // lowest ids, which under uniform sampling is distribution-equivalent to
  // any other fixed subset). With num_malicious_ == 0 — e.g. a sub-1%
  // fraction floored away at small populations — an attack degrades to a
  // clean baseline run instead of throwing.
  const auto is_malicious_id = [&](std::size_t c) {
    return attack != nullptr &&
           static_cast<std::int64_t>(c) < num_malicious_;
  };
  // An omniscient attack reads the round's whole benign update matrix, so
  // its rounds are one wave.
  const bool omniscient = attack != nullptr && attack->needs_benign_updates();

  // Round-loop working buffers, hoisted above the hot loop and reused via
  // clear()/resize(): every vector here is bounded by clients_per_round,
  // which is fixed for the run, so one reserve covers all rounds and the
  // loop body itself allocates nothing. The per-client Update buffers are
  // reused training slots (wave_updates) and the attack's crafted buffer;
  // each client's model and scratch are still built per call.
  const std::size_t round_k =
      static_cast<std::size_t>(config_.clients_per_round);
  std::vector<std::size_t> benign_ids;
  std::vector<std::int64_t> benign_weights;
  std::vector<std::int64_t> median_scratch;
  std::vector<std::int64_t> weights;
  std::vector<std::size_t> wave_benign;
  std::vector<defense::Update> wave_updates;
  std::vector<bool> is_malicious;  // sampling-order flags
  std::vector<std::size_t> slot_of(round_k);  // position -> wave_updates slot
  benign_ids.reserve(round_k);
  benign_weights.reserve(round_k);
  median_scratch.reserve(round_k);
  weights.reserve(round_k);
  wave_benign.reserve(round_k);
  wave_updates.reserve(round_k);
  is_malicious.reserve(round_k);

  for (std::int64_t round = 0; round < config_.rounds; ++round) {
    ZKA_PROF_SCOPE("round");
    aggregator_->begin_round(global, round);
    util::Rng round_rng = rng.split(0x1000 + static_cast<std::uint64_t>(round));
    // Uniform client sampling without replacement: O(clients_per_round)
    // regardless of population (Floyd above Rng::kDenseSampleMax).
    const auto sampled = round_rng.sample_without_replacement(
        static_cast<std::size_t>(population), round_k);

    benign_ids.clear();
    is_malicious.clear();
    for (const std::size_t c : sampled) {
      is_malicious.push_back(is_malicious_id(c));
      if (!is_malicious.back()) benign_ids.push_back(c);
    }
    const std::size_t malicious_sampled = round_k - benign_ids.size();
    const bool have_malicious = malicious_sampled > 0;

    // Per-client FedAvg weights are client-reported sample counts: benign
    // clients report their true shard size (registry lookup, no
    // materialization); malicious clients report whatever the attack
    // chooses (Attack::reported_weight, defaulting to the benign median)
    // — never a fabricated max(shard, 1).
    benign_weights.clear();
    for (const std::size_t c : benign_ids) {
      benign_weights.push_back(
          registry_->num_samples(static_cast<std::int64_t>(c)));
    }
    median_scratch.assign(benign_weights.begin(), benign_weights.end());
    const std::int64_t benign_median = median_weight(median_scratch);

    // Every round is one stream. A folding defense under a memory budget
    // takes it in budget-sized waves — train a wave, fold it, free it. Any
    // other round is one wave of all K clients (the defense holds every
    // view until finish_stream, or an omniscient attack reads them all),
    // so K live buffers is the floor and a smaller budget is an error.
    std::size_t wave = round_k;
    if (config_.memory_budget_bytes > 0) {
      if (aggregator_->supports_streaming() && !omniscient) {
        // The crafted buffer stays live across every wave, so it counts
        // against the budget alongside the wave's training slots. Peak
        // live bytes are therefore <= max(budget, 2 * update_bytes) — the
        // floor being one training slot plus the crafted update.
        const std::size_t capacity =
            config_.memory_budget_bytes / update_bytes;
        wave = std::clamp<std::size_t>(
            have_malicious && capacity > 1 ? capacity - 1 : capacity,
            std::size_t{1}, round_k);
      } else {
        ZKA_CHECK(config_.memory_budget_bytes >= round_k * update_bytes,
                  "Simulation: %s cannot stream, so the round needs %zu "
                  "update bytes, above memory_budget_bytes %zu — raise the "
                  "budget or use a streaming defense",
                  aggregator_->name().c_str(), round_k * update_bytes,
                  config_.memory_budget_bytes);
      }
    }

    defense::Update malicious_update;
    std::int64_t malicious_weight = 0;
    // Trains the clients in wave_benign into wave_updates (parallel,
    // deterministic seeds; every slot is overwritten) and tracks the live
    // update bytes: the wave's slots plus the shared crafted buffer.
    std::size_t round_peak_bytes = 0;
    const auto train_wave = [&] {
      wave_updates.resize(wave_benign.size());
      {
        ZKA_PROF_SCOPE("client_train");
        // Each client's seed mixes run seed, round and client id, so its
        // update is independent of scheduling order.
        const auto train_one = [&](std::size_t k) {
          ZKA_PROF_SCOPE("client_train/one");
          const Client client =
              registry_->client(static_cast<std::int64_t>(wave_benign[k]));
          const std::uint64_t seed =
              config_.seed * 0x9e3779b97f4a7c15ULL +
              static_cast<std::uint64_t>(round) * 1315423911ULL +
              static_cast<std::uint64_t>(client.id());
          wave_updates[k] = client.train(global, seed);
        };
        if (config_.parallel_clients) {
          util::global_thread_pool().parallel_for(wave_benign.size(),
                                                  train_one);
        } else {
          for (std::size_t k = 0; k < wave_benign.size(); ++k) train_one(k);
        }
      }
      round_peak_bytes = std::max(
          round_peak_bytes,
          (wave_updates.size() + (have_malicious ? 1 : 0)) * update_bytes);
    };
    // Queues sampled position i's client for the next wave (sybils train
    // nothing) and the update position i submits: a view of the one
    // crafted buffer for a sybil, else of the client's training slot.
    const auto enqueue = [&](std::size_t i) {
      if (is_malicious[i]) return;
      slot_of[i] = wave_benign.size();
      wave_benign.push_back(sampled[i]);
    };
    const auto submission = [&](std::size_t i) {
      return is_malicious[i] ? defense::UpdateView(malicious_update)
                             : defense::UpdateView(wave_updates[slot_of[i]]);
    };
    const auto train_first_pass_wave = [&](std::size_t start) {
      wave_benign.clear();
      for (std::size_t i = start; i < std::min(start + wave, round_k); ++i) {
        enqueue(i);
      }
      train_wave();
    };
    train_first_pass_wave(0);

    // Craft once, after the first wave trained (for an omniscient attack,
    // the whole benign round); every malicious client submits the result.
    if (have_malicious) {
      ZKA_PROF_SCOPE("attack_craft");
      attack::AttackContext ctx;
      ctx.global_model = global;
      ctx.prev_global_model = prev_global;
      ctx.benign_updates = omniscient ? &wave_updates : nullptr;
      ctx.round = round;
      ctx.num_selected = config_.clients_per_round;
      ctx.num_malicious_selected = static_cast<std::int64_t>(malicious_sampled);
      ctx.learning_rate = config_.client.learning_rate;
      ctx.benign_median_weight = benign_median;
      malicious_update = attack->craft(ctx);
      ZKA_CHECK(malicious_update.size() == global.size(),
                "%s crafted %zu params, model has %zu", attack->name().c_str(),
                malicious_update.size(), global.size());
      malicious_weight = attack->reported_weight(ctx);
      ZKA_CHECK(malicious_weight >= 0, "%s reported negative weight %lld",
                attack->name().c_str(),
                static_cast<long long>(malicious_weight));
    }

    weights.clear();
    for (std::size_t i = 0, b = 0; i < round_k; ++i) {
      weights.push_back(is_malicious[i] ? malicious_weight
                                        : benign_weights[b++]);
    }
    aggregator_->begin_stream(global.size(), weights);
    for (std::size_t start = 0; start < round_k; start += wave) {
      if (start > 0) train_first_pass_wave(start);
      ZKA_PROF_SCOPE("aggregate");
      for (std::size_t i = start; i < std::min(start + wave, round_k); ++i) {
        aggregator_->stream_update(submission(i));
      }
    }

    // Replay pass: a sketched defense asks for an ascending index set back
    // at full dimension (the exact re-check of its selection boundary). A
    // one-wave round still holds every update in its slot. Otherwise the
    // requested clients re-train in waves under the same budget: training
    // is a pure function of (global model, seed), and the global has not
    // advanced yet, so the replayed bits match the first pass.
    const auto replay = aggregator_->stream_replay_request();
    for (std::size_t start = 0; start < replay.size();) {
      std::size_t end = start;
      if (wave == round_k) {
        end = replay.size();
      } else {
        wave_benign.clear();
        for (; end < replay.size() && wave_benign.size() < wave; ++end) {
          enqueue(replay[end]);
        }
        train_wave();
      }
      ZKA_PROF_SCOPE("aggregate");
      for (std::size_t r = start; r < end; ++r) {
        aggregator_->stream_replay(replay[r], submission(replay[r]));
      }
      start = end;
    }
    defense::AggregationResult agg;
    {
      ZKA_PROF_SCOPE("aggregate");
      agg = aggregator_->finish_stream();
    }
    result.peak_update_bytes =
        std::max(result.peak_update_bytes, round_peak_bytes);
    prev_global = std::move(global);
    global = std::move(agg.model);

    RoundRecord record;
    record.round = round;
    record.malicious_selected = static_cast<std::int64_t>(malicious_sampled);
    record.benign_selected = static_cast<std::int64_t>(benign_ids.size());
    if (aggregator_->selects_clients()) {
      for (const std::size_t idx : agg.selected) {
        if (is_malicious.at(idx)) ++record.malicious_passed;
        else ++record.benign_passed;
      }
    }
    if (config_.eval_every > 0 &&
        (round % config_.eval_every == 0 || round + 1 == config_.rounds)) {
      ZKA_PROF_SCOPE("eval");
      record.accuracy = evaluate_accuracy(factory_, global, test_);
      // max_accuracy starts NaN (nothing evaluated yet); std::max would
      // propagate the NaN forever, so seed it from the first evaluation.
      result.max_accuracy = std::isnan(result.max_accuracy)
                                ? record.accuracy
                                : std::max(result.max_accuracy,
                                           record.accuracy);
      result.final_accuracy = record.accuracy;
    }
    result.rounds.push_back(record);
    if (round_callback_) round_callback_(result.rounds.back());
  }
  result.final_model = std::move(global);
  return result;
}

}  // namespace zka::fl
