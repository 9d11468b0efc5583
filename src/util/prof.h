// Near-zero-overhead observability layer: RAII scoped timers and monotonic
// counters recorded into thread-local ring buffers, merged at flush into a
// Chrome trace-event JSON (chrome://tracing / Perfetto loadable) and an
// aggregate per-label summary.
//
// Cost model (the whole point of the design):
//
//   - ZKA_PROF compiled out (cmake -DZKA_PROF=OFF): the macros expand to
//     nothing; instrumented code is bit-identical to uninstrumented code.
//     The query API below still exists and returns empty data, so callers
//     (benches, tests) compile unchanged.
//   - Compiled in, runtime-disabled (the default): every instrumentation
//     point pays exactly one relaxed atomic load and one predictable
//     branch. No clock read, no store.
//   - Enabled: a scope costs two monotonic clock reads plus one ring-slot
//     store; a counter costs one relaxed fetch_add on a thread-local cell.
//     No locks, no allocation on the hot path (allocation happens once per
//     thread / per counter call site, under the registry mutex).
//
// Threading: each thread owns a fixed-capacity event ring and its counter
// cells. Writers publish with a release store of the ring head; the flush
// side reads heads with acquire and merges deterministically (events sorted
// by start time, labels sorted lexicographically), so the merged output does
// not depend on thread registration order. Flush (summary / trace export /
// reset) must run at a quiescent point — after parallel regions have joined,
// which is how the round loop and the benches use it.
//
// Usage:
//
//   {
//     ZKA_PROF_SCOPE("aggregate");          // times the enclosing scope
//     ...
//   }
//   ZKA_PROF_COUNT("gemm/flops", 2 * m * n * k);
//
//   util::prof::set_enabled(true);          // or env ZKA_PROF=1
//   ... workload ...
//   util::prof::write_chrome_trace("results/trace.json");
//   for (const auto& s : util::prof::summary()) ...
//
// ZKA_PROF_COUNT caches the counter cell per (call site, thread) on first
// use, so the name expression must be stable at a given call site for the
// process lifetime (string literals and the fixed ISA-tier names qualify).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace zka::util::prof {

#ifdef ZKA_PROF
inline constexpr bool kCompiled = true;
#else
inline constexpr bool kCompiled = false;
#endif

namespace detail {
extern std::atomic<bool> g_enabled;

struct CounterCell {
  const char* name;
  std::atomic<std::uint64_t> value{0};
};

/// Registers a counter cell for the calling thread (registry mutex held
/// during registration only). Called once per call site per thread via the
/// static thread_local in ZKA_PROF_COUNT.
CounterCell* register_counter(const char* name);

/// Appends one completed scope to the calling thread's ring buffer.
void record_scope(const char* label, std::uint64_t start_ns,
                  std::uint64_t end_ns);
}  // namespace detail

/// The hot-path gate: one relaxed load, constant-folds to false when the
/// layer is compiled out.
inline bool enabled() noexcept {
  return kCompiled && detail::g_enabled.load(std::memory_order_relaxed);
}

void set_enabled(bool on) noexcept;

/// Monotonic nanoseconds. Always available (even with ZKA_PROF off) — this
/// is the one sanctioned clock for timing anywhere in the repo.
std::uint64_t now_ns() noexcept;

/// Per-thread event-ring capacity (events retained per thread between
/// flushes). Overridable at process start via env ZKA_PROF_RING.
std::size_t ring_capacity() noexcept;

struct LabelSummary {
  std::string label;
  std::uint64_t count = 0;
  std::uint64_t total_ns = 0;
  std::uint64_t min_ns = 0;
  std::uint64_t max_ns = 0;
  std::uint64_t p50_ns = 0;
  std::uint64_t p99_ns = 0;
};

struct CounterSample {
  std::string name;
  std::uint64_t value = 0;
};

/// One retained scope event, as merged at flush (sorted by start time, then
/// thread id, then label — a deterministic order for any thread schedule).
struct TraceEvent {
  std::string label;
  std::uint64_t start_ns = 0;  // relative to the profiling epoch
  std::uint64_t dur_ns = 0;
  std::uint32_t tid = 0;  // registration-order thread index
};

/// Per-label aggregate over the retained events of all threads, sorted by
/// label. Percentiles are computed over event durations.
std::vector<LabelSummary> summary();

/// Monotonic counters merged across threads (same-name cells summed),
/// sorted by name.
std::vector<CounterSample> counters();

/// Retained events of all threads, merged and deterministically sorted.
std::vector<TraceEvent> events();

/// Events that fell out of a ring since the last reset (ring wrapped).
std::uint64_t dropped_events();

/// Clears every thread's ring and zeroes all counters. Like the other
/// flush-side calls, only valid at a quiescent point.
void reset();

/// The merged trace as a Chrome trace-event JSON object: "traceEvents"
/// holds complete ("ph":"X") events in microseconds; "zkaCounters" and
/// "zkaSummary" carry the counter and per-label aggregates (ignored by the
/// viewers; read by people and scripts explaining a bench's `--trace`).
std::string chrome_trace_json();

/// Writes chrome_trace_json() to `path`; throws (ZKA_CHECK-style) when the
/// file cannot be opened or written.
void write_chrome_trace(const std::string& path);

/// RAII scope timer; prefer the ZKA_PROF_SCOPE macro. `label` must outlive
/// the process (string literal).
class ScopedTimer {
 public:
  explicit ScopedTimer(const char* label) noexcept {
    if (enabled()) {
      label_ = label;
      start_ = now_ns();
    }
  }
  ~ScopedTimer() {
    if (label_ != nullptr) detail::record_scope(label_, start_, now_ns());
  }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  const char* label_ = nullptr;
  std::uint64_t start_ = 0;
};

}  // namespace zka::util::prof

#define ZKA_PROF_CONCAT_IMPL_(a, b) a##b
#define ZKA_PROF_CONCAT_(a, b) ZKA_PROF_CONCAT_IMPL_(a, b)

#ifdef ZKA_PROF

#define ZKA_PROF_SCOPE(label)                              \
  const ::zka::util::prof::ScopedTimer ZKA_PROF_CONCAT_(   \
      zka_prof_scope_, __LINE__)(label)

#define ZKA_PROF_COUNT(name, amount)                                       \
  do {                                                                     \
    if (::zka::util::prof::enabled()) {                                    \
      static thread_local ::zka::util::prof::detail::CounterCell* const    \
          zka_prof_cell_ =                                                 \
              ::zka::util::prof::detail::register_counter(name);           \
      zka_prof_cell_->value.fetch_add(static_cast<std::uint64_t>(amount),  \
                                      std::memory_order_relaxed);          \
    }                                                                      \
  } while (0)

#else  // !ZKA_PROF — expand to nothing, but keep the arguments compiled
       // (dead-code eliminated) so they cannot bit-rot unchecked, mirroring
       // the ZKA_DCHECK policy in util/check.h.

#define ZKA_PROF_SCOPE(label)          \
  do {                                 \
    if (false) { (void)(label); }      \
  } while (0)

#define ZKA_PROF_COUNT(name, amount)              \
  do {                                            \
    if (false) {                                  \
      (void)(name);                               \
      (void)(amount);                             \
    }                                             \
  } while (0)

#endif  // ZKA_PROF
