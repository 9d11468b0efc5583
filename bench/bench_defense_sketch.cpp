// Sketched robust aggregation at production cohort sizes: selection
// agreement of the JL-sketch + exact-recheck path against the exact
// rules, and wall-clock / server-memory numbers for the O(n)-memory
// streaming mKrum path at n = 10^4 (10^5 behind --full), d = 10^5. The
// process's peak RSS is printed at the end.
//
// The streaming phase generates every update on the fly from its index
// (one reusable d-float buffer) and regenerates the replayed rows the
// same way — the bench process never holds an n x d matrix, mirroring
// the server contract the memory check below enforces.
//
// Extra flags on top of bench_common:
//   --n-agree N     agreement-sweep round size needing the exact rule
//                   in memory (default 2000)
//   --agree-dim N   update dimension for the agreement sweep (8192)
//   --n-stream N    streaming round size (default 10000; --full 100000)
//   --stream-dim N  streaming update dimension (default 100000)
//   --sketch-dim K  JL sketch dimension (default 256)
//   --band B        exact re-check band half-width (default 16)
//   --budget-mb N   server memory budget the streaming state must fit
//                   (default 256; --full 1024)
#include <sys/resource.h>

#include <memory>

#include "bench_common.h"
#include "defense/bulyan.h"
#include "defense/krum.h"
#include "defense/sketch.h"

namespace {

using zka::defense::Update;

// Cheap deterministic per-(seed, index, coordinate) filler — Box-Muller
// would dominate the streaming phase at n*d = 10^9 draws. SplitMix64
// per coordinate block, uniform in [-r, r]: the distance structure
// (tight core, 5x stragglers, identical near-center sybils) is all the
// selection rules look at.
void fill_update(std::uint64_t seed, std::size_t index, std::size_t n,
                 std::size_t sybils, std::size_t stragglers,
                 std::span<float> out) {
  if (index + sybils >= n) {  // identical sybils, slightly off-center
    std::fill(out.begin(), out.end(), 0.02f);
    return;
  }
  const float r = (index + sybils + stragglers >= n) ? 0.25f : 0.05f;
  std::uint64_t state = seed ^ (0x9e3779b97f4a7c15ULL * (index + 1));
  for (auto& x : out) {
    state += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    z ^= z >> 31;
    const float u = static_cast<float>(z >> 40) *
                    (1.0f / static_cast<float>(1ull << 24));
    x = (2.0f * u - 1.0f) * r;
  }
}

double agreement(const std::vector<std::size_t>& exact,
                 const std::vector<std::size_t>& sketched) {
  std::size_t overlap = 0;
  for (const std::size_t i : sketched) {
    overlap += std::binary_search(exact.begin(), exact.end(), i) ? 1 : 0;
  }
  return exact.empty() ? 1.0
                       : static_cast<double>(overlap) /
                             static_cast<double>(exact.size());
}

}  // namespace

int main(int argc, char** argv) {
  using namespace zka;
  const util::CliArgs args(argc, argv);
  const bool full = args.get_bool("full", false);
  const bench::Trace trace(args);

  const std::size_t n_agree =
      static_cast<std::size_t>(args.get_int64("n-agree", 2000));
  const std::size_t agree_dim =
      static_cast<std::size_t>(args.get_int64("agree-dim", 8192));
  const std::size_t n_stream = static_cast<std::size_t>(
      args.get_int64("n-stream", full ? 100000 : 10000));
  const std::size_t stream_dim =
      static_cast<std::size_t>(args.get_int64("stream-dim", 100000));
  const std::size_t sketch_dim =
      static_cast<std::size_t>(args.get_int64("sketch-dim", 256));
  const std::size_t band =
      static_cast<std::size_t>(args.get_int64("band", 16));
  const std::size_t budget_bytes =
      static_cast<std::size_t>(args.get_int64("budget-mb", full ? 1024 : 256))
      << 20;
  const std::uint64_t seed =
      static_cast<std::uint64_t>(args.get_int64("seed", 1));

  util::Table table({"Phase", "n", "d", "Rule", "agree (%)", "wall (ms)",
                     "server (MiB)"});

  // ── Agreement sweep: sketched vs exact selection, rules in memory ────
  for (const std::size_t n : {std::size_t{512}, n_agree}) {
    const std::size_t f = std::max<std::size_t>(2, n / 100);
    std::vector<Update> updates(n, Update(agree_dim));
    for (std::size_t i = 0; i < n; ++i) {
      fill_update(seed, i, n, f, f, updates[i]);
    }
    const defense::SketchOptions sketch{.sketch_dim = sketch_dim,
                                        .recheck_band = band};

    const defense::MultiKrum exact_rule(f), sketched_rule(f, 0, false, sketch);
    const double agree = agreement(exact_rule.select(updates),
                                   sketched_rule.select(updates));
    ZKA_CHECK(agree >= 0.95,
              "sketched mKrum agreement %.3f < 0.95 at n=%zu", agree, n);
    table.add_row({"agree", std::to_string(n), std::to_string(agree_dim),
                   "mkrum", util::Table::fmt(agree * 100.0, 1), "-", "-"});
    std::printf("[sketch] agree n=%zu: %.1f%% overlap with exact mKrum\n", n,
                agree * 100.0);
    std::fflush(stdout);

    // Bulyan rides the iterative variant, whose successive-exclusion
    // pick loop is O(m·n²) with or without the sketch — seconds per call
    // at the larger sweep size, so it reports at n = 512 only.
    if (n == 512) {
      defense::Bulyan exact_bulyan(f), sketched_bulyan(f, sketch);
      const std::vector<std::int64_t> weights(n, 1);
      const auto views = defense::as_views(updates);
      const double bulyan_agree =
          agreement(exact_bulyan.aggregate(views, weights).selected,
                    sketched_bulyan.aggregate(views, weights).selected);
      table.add_row({"agree", std::to_string(n), std::to_string(agree_dim),
                     "bulyan", util::Table::fmt(bulyan_agree * 100.0, 1), "-",
                     "-"});
    }
  }

  // ── Streaming scale: one update live at a time, O(n·k) server state ──
  {
    const std::size_t n = n_stream, d = stream_dim;
    const std::size_t f = std::max<std::size_t>(2, n / 200);
    const defense::SketchOptions sketch{.sketch_dim = sketch_dim,
                                        .recheck_band = band};
    defense::MultiKrum rule(f, 0, false, sketch);
    const std::vector<std::int64_t> weights(n, 1);
    Update row(d);
    std::size_t replay_rows = 0;

    const std::uint64_t start = util::prof::now_ns();
    rule.begin_stream(d, weights);
    for (std::size_t i = 0; i < n; ++i) {
      fill_update(seed, i, n, f, f, row);
      rule.stream_update(row);
    }
    const auto request = rule.stream_replay_request();
    replay_rows = request.size();
    for (const std::size_t i :
         std::vector<std::size_t>(request.begin(), request.end())) {
      fill_update(seed, i, n, f, f, row);
      rule.stream_replay(i, row);
    }
    const auto result = rule.finish_stream();
    const double wall_ms =
        static_cast<double>(util::prof::now_ns() - start) / 1e6;

    // Server-resident streaming state: n·k sketch floats, the d-double
    // running sum, and the replayed rows — vs the n·d matrix the exact
    // rule would need.
    const std::size_t server_bytes = n * sketch_dim * sizeof(float) +
                                     d * sizeof(double) +
                                     replay_rows * d * sizeof(float);
    const std::size_t exact_bytes = n * d * sizeof(float);
    ZKA_CHECK(server_bytes <= budget_bytes,
              "streaming state %zu bytes exceeds the %zu-byte budget",
              server_bytes, budget_bytes);
    ZKA_CHECK(result.selected.size() == n - f, "unexpected selection size");
    table.add_row({"stream", std::to_string(n), std::to_string(d), "mkrum",
                   "-", util::Table::fmt(wall_ms, 0),
                   util::Table::fmt(
                       static_cast<double>(server_bytes) / (1 << 20), 1)});
    std::printf(
        "[sketch] stream n=%zu d=%zu: %.0f ms, %.1f MiB server state "
        "(exact rule: %.1f MiB), %zu replayed rows\n",
        n, d, wall_ms, static_cast<double>(server_bytes) / (1 << 20),
        static_cast<double>(exact_bytes) / (1 << 20), replay_rows);
  }

  struct rusage usage = {};
  getrusage(RUSAGE_SELF, &usage);
  std::printf("peak RSS: %.1f MiB\n",
              static_cast<double>(usage.ru_maxrss) / 1024.0);

  table.print("\nSketched robust aggregation — agreement and O(n) streaming");
  bench::maybe_write_csv(args, table);
  trace.write();
  return 0;
}
