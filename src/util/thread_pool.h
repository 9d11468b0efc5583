// Fixed-size worker pool used to train the clients of an FL round in
// parallel. Its one dispatch path, parallel_for, is a blocking index-range
// helper with deterministic per-index work that allocates nothing, so the
// kernels can fork on every call of a steady-state training step. The
// kernels fork only through fork_width and for_ranges, which hold the one
// rule for when and how a kernel splits.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace zka::util {

/// Non-owning reference to a callable taking `Args`. The pool takes its
/// bodies this way: a std::function would heap-allocate any capture larger
/// than two pointers. The referenced callable must outlive the call it is
/// passed to (a lambda temporary in the argument list does).
template <typename... Args>
class FnRef {
 public:
  template <typename F>
    requires(!std::is_same_v<std::remove_cvref_t<F>, FnRef> &&
             std::is_invocable_v<F&, Args...>)
  FnRef(F&& f) noexcept  // NOLINT(google-explicit-constructor)
      : object_(const_cast<void*>(
            static_cast<const void*>(std::addressof(f)))),
        call_([](void* object, Args... args) {
          (*static_cast<std::remove_reference_t<F>*>(object))(args...);
        }) {}

  void operator()(Args... args) const { call_(object_, args...); }

 private:
  void* object_;
  void (*call_)(void*, Args...);
};

/// parallel_for's body: index.
using IndexFn = FnRef<std::size_t>;
/// for_ranges' body: (range index r, lo, hi).
using RangeFn = FnRef<std::size_t, std::size_t, std::size_t>;

/// Default fork point of fork_width, in element operations: below it the
/// fork/join handshake costs more than the work.
inline constexpr std::size_t kForkElems = std::size_t{1} << 18;

class ThreadPool {
 public:
  /// Spawns `num_threads` workers (hardware concurrency if 0).
  explicit ThreadPool(std::size_t num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const noexcept { return workers_.size(); }

  /// Runs body(i) for i in [0, n) across the pool and blocks until done.
  /// The calling thread takes part. Exceptions from the body propagate to
  /// the caller (first one wins).
  ///
  /// Re-entrant: when called from a thread already working for this pool —
  /// one of its workers, or a caller inside this pool's parallel_for — the
  /// whole range runs inline on the calling thread. The outer parallel_for
  /// already owns the workers, and waiting for them would deadlock a
  /// fully-busy pool. Nested parallelism therefore degrades to sequential
  /// execution with identical results. Calls from unrelated threads run
  /// one at a time.
  void parallel_for(std::size_t n, IndexFn body);

  /// The kernels' one fork rule: how many ways a kernel of `work` element
  /// operations splits. size() when the work reaches `fork_point`, the
  /// pool has more than one worker and the calling thread is not already
  /// inside this pool (one of its workers, or a caller inside its
  /// parallel_for); otherwise 1, and the kernel runs as one range on the
  /// calling thread. A kernel nested in a pool task therefore never cuts
  /// itself into ranges that would only run one after another.
  std::size_t fork_width(std::size_t work,
                         std::size_t fork_point = kForkElems) const noexcept;

  /// Cuts [0, units) into `ranges` contiguous ranges, range r being
  /// [units·r / ranges, units·(r+1) / ranges), and runs body(r, lo, hi) for
  /// every non-empty one: on the calling thread when ranges <= 1, else
  /// across the pool through parallel_for. Ranges ascend and are disjoint,
  /// so a body may index per-range scratch by r. Allocates nothing.
  void for_ranges(std::size_t units, std::size_t ranges, RangeFn body);

  /// Stable index in [0, size()] of the calling thread within this pool:
  /// worker w (0-based) is w + 1, and every other thread, a parallel_for
  /// caller included, is 0. parallel_for bodies that run concurrently
  /// always see different indices, and a nested (inline) parallel_for
  /// sees its outer body's, so the index can pick per-thread scratch.
  std::size_t participant_index() const noexcept;

 private:
  struct Region;

  void worker_loop(std::size_t index);
  // True on a worker of this pool and on a caller inside its parallel_for.
  bool inside() const noexcept;

  std::vector<std::thread> workers_;
  std::mutex mutex_;
  std::condition_variable cv_;  // workers: a region seat is ready
  std::condition_variable region_done_;  // caller: no helper left in region_
  // The running parallel_for, if any (guarded by mutex_): how many more
  // workers may join it, and how many are inside it.
  Region* region_ = nullptr;
  std::size_t seats_ = 0;
  std::size_t active_ = 0;
  std::mutex region_owner_;  // one parallel_for from outside at a time
  bool stopping_ = false;
};

/// Process-wide pool, lazily constructed. FL simulations and the tensor
/// kernels share it so nested parallelism does not oversubscribe the
/// machine. Worker count is hardware concurrency, overridable with the
/// ZKA_THREADS environment variable (read once, at first use).
ThreadPool& global_thread_pool();

}  // namespace zka::util
