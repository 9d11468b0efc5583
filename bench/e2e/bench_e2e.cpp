// End-to-end round benchmark binary. Runs one named workload through the
// public fl::Simulation API in a closed loop (each round starts when the
// previous one returns; one process; the global thread pool sized by
// ZKA_THREADS) and prints one JSON object of raw measurements on stdout.
// bench/e2e/run.py turns them into the BENCHMARK.json metrics and runs the
// correctness checks; bench/e2e/README.md documents both.
//
//   bench_e2e --workload NAME --seed S --seconds T [--trace 0|1]
//             [--rounds N] [--min-seeds N] [--max-seeds N]
//             [--warmup-rounds N] [--trace-out PATH]
//   bench_e2e --workload NAME --seed S --reference [--warmup-rounds N]
//
// A run is an untimed warm-up of seed S (--warmup-rounds rounds), then
// whole seeds S, S+1, ... until T seconds of timed wall have elapsed and
// at least --min-seeds seeds have run. Every seed's construction is a
// timed set-up (Simulation construction + make_attack); with --trace 0 one
// more timed set-up runs between rounds about once a second, outside the
// round timer. With --trace 1 the timed phase first runs seed S untraced
// (the baseline of the tracing overhead), then the traced seeds: profiler
// on, the layer decorators of layers.h installed. --reference runs only
// the warm-up and prints its final-model digest, for comparison across
// processes.
#include <sys/resource.h>

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <exception>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "../bench_common.h"
#include "fl/experiment.h"
#include "layers.h"
#include "tensor/ops.h"
#include "tensor/reduce.h"
#include "util/check.h"
#include "util/cli.h"
#include "util/prof.h"
#include "util/thread_pool.h"

#ifndef ZKA_E2E_BUILD_TYPE
#define ZKA_E2E_BUILD_TYPE "unknown"
#endif

namespace {

using namespace zka;
namespace prof = util::prof;
using bench::e2e::TimedAggregator;
using bench::e2e::TimedAttack;

struct Workload {
  const char* name;
  fl::AttackKind attack;
  fl::SimulationConfig config;  // seed and round count are set per run
  bool eval_ends_only;          // evaluate the first and last round only
};

// A Table-II cell as the paper benches build it at their quick scale,
// evaluated every round.
fl::SimulationConfig table2_cell(models::Task task, const char* defense,
                                 std::int64_t rounds) {
  fl::SimulationConfig c = bench::make_config(task, bench::BenchScale{},
                                              defense);
  c.rounds = rounds;
  c.eval_every = 1;
  return c;
}

// A cross-device cell (lazy registry over hashed Fashion shards).
fl::SimulationConfig xdevice_cell(std::int64_t population,
                                  std::int64_t samples_per_client,
                                  std::int64_t clients_per_round,
                                  double malicious_fraction,
                                  const char* defense, std::size_t f,
                                  std::size_t budget_bytes) {
  fl::SimulationConfig c;
  c.task = models::Task::kFashion;
  c.population = population;
  c.samples_per_client = samples_per_client;
  c.clients_per_round = clients_per_round;
  c.malicious_fraction = malicious_fraction;
  c.defense = defense;
  c.defense_f = f;
  c.memory_budget_bytes = budget_bytes;
  c.train_size = 800;
  c.test_size = 300;
  c.rounds = 20;
  return c;
}

// Why each workload exists is recorded in BENCHMARK.json and README.md.
const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = {
      {"cifar-zkar", fl::AttackKind::kZkaR,
       table2_cell(models::Task::kCifar, "mkrum", 20), false},
      {"fashion-zkag", fl::AttackKind::kZkaG,
       table2_cell(models::Task::kFashion, "median", 40), false},
      {"xdevice-stream", fl::AttackKind::kZkaR,
       xdevice_cell(100000, 32, 100, 0.01, "fedavg", 2, std::size_t{1} << 20),
       true},
      {"xdevice-bulyan", fl::AttackKind::kMinMax,
       xdevice_cell(10000, 16, 200, 0.05, "bulyan", 20, 0), true},
  };
  return all;
}

fl::SimulationConfig config_for(const Workload& w, std::uint64_t seed,
                                std::int64_t rounds) {
  fl::SimulationConfig c = w.config;
  c.seed = seed;
  c.rounds = rounds;
  if (w.eval_ends_only) c.eval_every = rounds;
  return c;
}

std::unique_ptr<attack::Attack> make_attack(const Workload& w,
                                            const fl::Simulation& sim) {
  return fl::make_attack(w.attack, sim,
                         bench::default_zka_options(sim.config().task),
                         sim.config().seed ^ 0xa77acc);
}

std::size_t count_nonfinite(const std::vector<float>& values) {
  std::size_t n = 0;
  for (const float v : values) n += std::isfinite(v) ? 0 : 1;
  return n;
}

std::uint64_t fnv1a(const std::vector<float>& values) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto* bytes = reinterpret_cast<const unsigned char*>(values.data());
  for (std::size_t i = 0; i < values.size() * sizeof(float); ++i) {
    h = (h ^ bytes[i]) * 0x100000001b3ULL;
  }
  return h;
}

// ── JSON output ─────────────────────────────────────────────────────────
// The output is not a zka-bench-v1 report, and BenchJson keeps its string
// and number escaping private to that schema, hence these three helpers.

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      out += ' ';
    } else {
      out += ch;
    }
  }
  return out + '"';
}

std::string json_num(double v) {
  if (std::isnan(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

template <typename T>
std::string json_arr(const std::vector<T>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ',';
    out += std::to_string(values[i]);
  }
  return out + ']';
}

// ── Trace: per-round layer costs from the prof event rings ──────────────

struct RoundLayers {
  std::uint64_t round_ns = 0;  // the library's "round" scope
  std::uint64_t train_ns = 0;  // "client_train" (one scope per wave)
  std::uint64_t waves = 0;
  std::uint64_t clients = 0;  // "client_train/one", replays included
  std::uint64_t one_sum_ns = 0;
  std::uint64_t eval_ns = 0;
  std::uint64_t craft_scope_ns = 0;  // the library's "attack_craft" scope
  std::uint64_t craft_ns = 0;        // TimedAttack span
  std::uint64_t classifier_ns = 0;   // "zka_*/classifier_train"
  std::uint64_t aggregate_scope_ns = 0;  // the library's "aggregate" scopes
  std::uint64_t defense_ns = 0;          // TimedAggregator spans
  std::uint64_t updates_in = 0;
  std::uint64_t gemm_calls = 0;
  std::uint64_t gemm_flops = 0;
  std::uint64_t reduce_elems = 0;
};

struct CounterTotals {
  std::uint64_t gemm_calls = 0;
  std::uint64_t gemm_flops = 0;
  std::uint64_t reduce_elems = 0;
};

CounterTotals read_counters() {
  CounterTotals t;
  for (const prof::CounterSample& c : prof::counters()) {
    if (c.name == "gemm/calls") {
      t.gemm_calls = c.value;
    } else if (c.name == "gemm/flops") {
      t.gemm_flops = c.value;
    } else if (c.name.starts_with("reduce/") && c.name.ends_with("/elems")) {
      t.reduce_elems += c.value;
    }
  }
  return t;
}

// Collects RoundLayers for every traced round. Counters are read at each
// round's callback (a quiescent point: the pool is idle); scope events are
// attributed to rounds after the seed, by start time inside the library's
// "round" spans.
class Tracer {
 public:
  explicit Tracer(std::string trace_out) : trace_out_(std::move(trace_out)) {}

  void begin_seed() {
    prof::reset();
    seed_begin_ = rounds_.size();
    last_ = {};
    last_updates_ = 0;
  }

  void end_round(std::uint64_t updates_in) {
    const CounterTotals now = read_counters();
    RoundLayers r;
    r.gemm_calls = now.gemm_calls - last_.gemm_calls;
    r.gemm_flops = now.gemm_flops - last_.gemm_flops;
    r.reduce_elems = now.reduce_elems - last_.reduce_elems;
    r.updates_in = updates_in - last_updates_;
    rounds_.push_back(r);
    last_ = now;
    last_updates_ = updates_in;
  }

  void abort_seed() { rounds_.resize(seed_begin_); }

  void end_seed(const TimedAggregator& timed_defense) {
    dropped_ += prof::dropped_events();
    if (!trace_out_.empty()) {
      prof::write_chrome_trace(trace_out_);
      trace_out_.clear();  // the first traced seed only
    }
    const std::vector<prof::TraceEvent> events = prof::events();
    std::vector<const prof::TraceEvent*> windows;
    for (const prof::TraceEvent& e : events) {
      if (e.label == "round") windows.push_back(&e);
    }
    ZKA_CHECK(windows.size() == rounds_.size() - seed_begin_,
              "trace: %zu round spans for %zu rounds", windows.size(),
              rounds_.size() - seed_begin_);
    for (std::size_t i = 0; i < windows.size(); ++i) {
      rounds_[seed_begin_ + i].round_ns = windows[i]->dur_ns;
    }
    std::size_t w = 0;  // events are sorted by start time
    for (const prof::TraceEvent& e : events) {
      while (w < windows.size() &&
             e.start_ns >= windows[w]->start_ns + windows[w]->dur_ns) {
        ++w;
      }
      if (w == windows.size()) break;
      if (e.start_ns < windows[w]->start_ns) continue;
      RoundLayers& r = rounds_[seed_begin_ + w];
      const std::string& l = e.label;
      const std::uint64_t d = e.dur_ns;
      if (l == "client_train") {
        r.train_ns += d;
        ++r.waves;
      } else if (l == "client_train/one") {
        r.one_sum_ns += d;
        ++r.clients;
        client_one_ns_.push_back(d);
      } else if (l == "eval") {
        r.eval_ns += d;
      } else if (l == "attack_craft") {
        r.craft_scope_ns += d;
      } else if (l == "aggregate") {
        r.aggregate_scope_ns += d;
      } else if (l == "e2e/attack.craft") {
        r.craft_ns += d;
      } else if (l.starts_with("e2e/defense.")) {
        r.defense_ns += d;
      } else if (l.ends_with("/classifier_train")) {
        r.classifier_ns += d;
      }
    }
    const defense::sanitize::Ingress& ingress =
        timed_defense.inner().ingress();
    ingress_repairs_ += ingress.zeroed_values() + ingress.clamped_weights();
  }

  std::string json() const {
    using Field = std::uint64_t RoundLayers::*;
    static constexpr std::pair<const char*, Field> kColumns[] = {
        {"round_ns", &RoundLayers::round_ns},
        {"train_ns", &RoundLayers::train_ns},
        {"waves", &RoundLayers::waves},
        {"clients", &RoundLayers::clients},
        {"one_sum_ns", &RoundLayers::one_sum_ns},
        {"eval_ns", &RoundLayers::eval_ns},
        {"craft_scope_ns", &RoundLayers::craft_scope_ns},
        {"craft_ns", &RoundLayers::craft_ns},
        {"classifier_ns", &RoundLayers::classifier_ns},
        {"aggregate_scope_ns", &RoundLayers::aggregate_scope_ns},
        {"defense_ns", &RoundLayers::defense_ns},
        {"updates_in", &RoundLayers::updates_in},
        {"gemm_calls", &RoundLayers::gemm_calls},
        {"gemm_flops", &RoundLayers::gemm_flops},
        {"reduce_elems", &RoundLayers::reduce_elems},
    };
    std::string out = "{";
    for (const auto& [name, field] : kColumns) {
      std::vector<std::uint64_t> values;
      values.reserve(rounds_.size());
      for (const RoundLayers& r : rounds_) values.push_back(r.*field);
      out += json_str(name) + ":" + json_arr(values) + ",";
    }
    out += "\"client_one_ns\":" + json_arr(client_one_ns_) + ",";
    out += "\"dropped_events\":" + std::to_string(dropped_) + ",";
    out += "\"ingress_repairs\":" + std::to_string(ingress_repairs_) + "}";
    return out;
  }

 private:
  std::string trace_out_;
  std::vector<RoundLayers> rounds_;
  std::vector<std::uint64_t> client_one_ns_;
  std::size_t seed_begin_ = 0;
  CounterTotals last_;
  std::uint64_t last_updates_ = 0;
  std::uint64_t dropped_ = 0;
  std::uint64_t ingress_repairs_ = 0;
};

// ── One seed ────────────────────────────────────────────────────────────

struct SeedRun {
  std::uint64_t seed = 0;
  std::string error;  // non-empty when the seed threw
  std::uint64_t setup_ns = 0;         // Simulation construction
  std::uint64_t attack_setup_ns = 0;  // make_attack
  std::vector<std::uint64_t> round_ns;
  std::vector<std::int64_t> benign;  // benign clients sampled per round
  fl::SimulationResult result;
};

/// Runs `rounds` rounds of seed `seed`. A round's wall time runs from the
/// end of the previous round callback (or from just before run()) to its
/// own callback, so `between_rounds`, called at the end of each callback,
/// is not part of it. With a tracer, the defense and attack run under the
/// layers.h decorators and the tracer records every round.
SeedRun run_seed(const Workload& w, std::uint64_t seed, std::int64_t rounds,
                 Tracer* tracer,
                 const std::function<void()>& between_rounds = {}) {
  SeedRun run;
  run.seed = seed;
  fl::SimulationConfig config = config_for(w, seed, rounds);
  TimedAggregator* timed_defense = nullptr;
  if (tracer != nullptr) {
    defense::AggregatorOptions options;  // what Simulation would pass
    options.num_byzantine = config.defense_f;
    options.sketch_dim = config.sketch_dim;
    options.memory_budget_bytes = config.memory_budget_bytes;
    config.custom_defense = [options, name = config.defense, &timed_defense] {
      auto agg = std::make_unique<TimedAggregator>(
          defense::make_aggregator(name, options));
      timed_defense = agg.get();
      return std::unique_ptr<defense::Aggregator>(std::move(agg));
    };
  }
  try {
    const std::uint64_t t0 = prof::now_ns();
    fl::Simulation sim(config);
    const std::uint64_t t1 = prof::now_ns();
    std::unique_ptr<attack::Attack> attack = make_attack(w, sim);
    if (tracer != nullptr) {
      attack = std::make_unique<TimedAttack>(std::move(attack));
    }
    run.setup_ns = t1 - t0;
    run.attack_setup_ns = prof::now_ns() - t1;

    if (tracer != nullptr) tracer->begin_seed();
    std::uint64_t last = 0;
    sim.set_round_callback([&](const fl::RoundRecord& record) {
      run.round_ns.push_back(prof::now_ns() - last);
      run.benign.push_back(record.benign_selected);
      if (tracer != nullptr) tracer->end_round(timed_defense->updates_in());
      if (between_rounds) between_rounds();
      last = prof::now_ns();
    });
    last = prof::now_ns();
    run.result = sim.run(attack.get());
    if (tracer != nullptr) tracer->end_seed(*timed_defense);
  } catch (const std::exception& e) {
    run.error = e.what();
    if (run.error.empty()) run.error = "exception";
    if (tracer != nullptr) tracer->abort_seed();
  }
  return run;
}

std::string seed_json(const SeedRun& run, const models::Task task) {
  const bool ok = run.error.empty();
  char digest[24];
  std::snprintf(digest, sizeof digest, "%016" PRIx64,
                ok ? fnv1a(run.result.final_model) : 0);
  std::string out = "{\"seed\":" + std::to_string(run.seed);
  out += ",\"error\":" + json_str(run.error);
  out += ",\"rounds\":" + std::to_string(run.round_ns.size());
  out += ",\"final_accuracy\":" + json_num(run.result.final_accuracy);
  out += ",\"max_accuracy\":" + json_num(run.result.max_accuracy);
  out += ",\"dpr\":" + json_num(run.result.dpr());
  out += ",\"digest\":" + json_str(ok ? digest : "");
  out += ",\"nonfinite\":" +
         std::to_string(count_nonfinite(run.result.final_model));
  out += ",\"peak_update_bytes\":" +
         std::to_string(run.result.peak_update_bytes);
  out += ",\"num_classes\":" +
         std::to_string(models::task_spec(task).num_classes);
  out += ",\"setup_ns\":" + std::to_string(run.setup_ns);
  out += ",\"attack_setup_ns\":" + std::to_string(run.attack_setup_ns);
  out += ",\"round_ns\":" + json_arr(run.round_ns);
  out += ",\"benign\":" + json_arr(run.benign) + "}";
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const util::CliArgs args(argc, argv);
  const std::string name = args.get_string("workload", "");
  const Workload* workload = nullptr;
  for (const Workload& w : workloads()) {
    if (name == w.name) workload = &w;
  }
  if (workload == nullptr) {
    std::fprintf(stderr, "bench_e2e: unknown --workload '%s'; one of:",
                 name.c_str());
    for (const Workload& w : workloads()) std::fprintf(stderr, " %s", w.name);
    std::fprintf(stderr, "\n");
    return 2;
  }
  const Workload& w = *workload;
  const auto seed = static_cast<std::uint64_t>(args.get_int64("seed", 1));
  const std::int64_t warmup_rounds = args.get_int64("warmup-rounds", 2);
  const models::Task task = w.config.task;
  prof::set_enabled(false);

  if (args.get_bool("reference", false)) {
    const SeedRun ref = run_seed(w, seed, warmup_rounds, nullptr);
    std::printf("{\"workload\":%s,\"reference\":%s}\n",
                json_str(w.name).c_str(), seed_json(ref, task).c_str());
    return 0;
  }

  const double seconds = args.get_double("seconds", 10.0);
  const bool trace = args.get_int("trace", 0) != 0;
  const std::int64_t rounds = args.get_int64("rounds", w.config.rounds);
  const std::int64_t min_seeds = args.get_int64("min-seeds", 1);
  const std::int64_t max_seeds = args.get_int64("max-seeds", 1000);
  if (rounds < 1 || min_seeds < 1 || max_seeds < min_seeds ||
      warmup_rounds < 1 || seconds < 0.0) {
    std::fprintf(stderr, "bench_e2e: need --rounds, --min-seeds, "
                         "--warmup-rounds >= 1, --max-seeds >= --min-seeds "
                         "and --seconds >= 0\n");
    return 2;
  }

  // Lets lazy state (thread pool, arenas, page cache) settle before timing.
  const SeedRun warmup = run_seed(w, seed, warmup_rounds, nullptr);

  std::vector<std::uint64_t> setup_ns;
  std::vector<std::uint64_t> attack_setup_ns;
  std::uint64_t last_setup = 0;
  const auto time_setup = [&](bool record) {
    const std::uint64_t t0 = prof::now_ns();
    const fl::Simulation sim(config_for(w, seed, rounds));
    const std::uint64_t t1 = prof::now_ns();
    const auto attack = make_attack(w, sim);
    last_setup = prof::now_ns();
    if (record) {
      attack_setup_ns.push_back(last_setup - t1);
      setup_ns.push_back(t1 - t0);
    }
  };
  // The first set-ups after the warm-up still fault in pages until
  // malloc's thresholds adapt to the dataset sizes (25-28 ms against a
  // steady 18 ms on xdevice-stream), so they run untimed.
  for (int i = 0; i < 6; ++i) time_setup(false);
  // A shared machine has slow phases of a second or two. Set-ups spread
  // evenly over the run sample many of them, where a block of set-ups
  // samples one.
  const std::function<void()> setup_between_rounds = [&] {
    if (prof::now_ns() - last_setup >= 1'000'000'000) time_setup(true);
  };

  Tracer tracer(args.get_string("trace-out", ""));
  std::vector<SeedRun> runs;
  std::string untraced = "null";
  const std::uint64_t start = prof::now_ns();
  const auto deadline = static_cast<std::uint64_t>(seconds * 1e9);
  if (trace) {
    untraced = seed_json(run_seed(w, seed, rounds, nullptr), task);
    prof::set_enabled(true);
  }
  for (std::uint64_t s = seed;
       static_cast<std::int64_t>(runs.size()) < max_seeds; ++s) {
    // Traced rounds keep the set-ups out of the library's "round" scope.
    runs.push_back(trace ? run_seed(w, s, rounds, &tracer)
                         : run_seed(w, s, rounds, nullptr,
                                    setup_between_rounds));
    setup_ns.push_back(runs.back().setup_ns);
    attack_setup_ns.push_back(runs.back().attack_setup_ns);
    if (static_cast<std::int64_t>(runs.size()) >= min_seeds &&
        prof::now_ns() - start >= deadline) {
      break;
    }
  }
  prof::set_enabled(false);

  struct rusage usage = {};
  getrusage(RUSAGE_SELF, &usage);

  std::string out = "{\"workload\":" + json_str(w.name);
  out += ",\"seed\":" + std::to_string(seed);
  out += ",\"trace\":" + std::string(trace ? "true" : "false");
  out += ",\"env\":{\"gemm_backend\":" + json_str(tensor::gemm_backend_name());
  out += ",\"reduce_backend\":" + json_str(tensor::reduce_backend_name());
  out += ",\"prof_compiled\":" +
         std::string(prof::kCompiled ? "true" : "false");
  out += ",\"build_type\":" + json_str(ZKA_E2E_BUILD_TYPE);
  out += ",\"pool_threads\":" +
         std::to_string(util::global_thread_pool().size() + 1) + "}";
  out += ",\"budget_bytes\":" + std::to_string(w.config.memory_budget_bytes);
  out += ",\"workload_rounds\":" + std::to_string(w.config.rounds);
  out += ",\"peak_rss_kib\":" + std::to_string(usage.ru_maxrss);
  out += ",\"setup_ns\":" + json_arr(setup_ns);
  out += ",\"attack_setup_ns\":" + json_arr(attack_setup_ns);
  out += ",\"warmup\":" + seed_json(warmup, task);
  out += ",\"untraced\":" + untraced;
  out += ",\"seeds\":[";
  for (std::size_t i = 0; i < runs.size(); ++i) {
    if (i > 0) out += ',';
    out += seed_json(runs[i], task);
  }
  out += "],\"layers\":" + (trace ? tracer.json() : std::string("null"));
  out += "}\n";
  std::fputs(out.c_str(), stdout);
  return 0;
}
