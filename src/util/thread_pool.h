// Fixed-size worker pool used to train the clients of an FL round in
// parallel. Its one dispatch path, parallel_for, is a blocking index-range
// helper with deterministic per-index work that allocates nothing, so the
// kernels can fork on every call of a steady-state training step.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace zka::util {

/// Non-owning reference to a callable taking an index. parallel_for takes
/// its body this way: a std::function would heap-allocate any capture
/// larger than two pointers. The referenced callable must outlive the call
/// it is passed to (a lambda temporary in the argument list does).
class IndexFn {
 public:
  template <typename F>
    requires(!std::is_same_v<std::remove_cvref_t<F>, IndexFn> &&
             std::is_invocable_v<F&, std::size_t>)
  IndexFn(F&& f) noexcept  // NOLINT(google-explicit-constructor)
      : object_(const_cast<void*>(
            static_cast<const void*>(std::addressof(f)))),
        call_([](void* object, std::size_t i) {
          (*static_cast<std::remove_reference_t<F>*>(object))(i);
        }) {}

  void operator()(std::size_t i) const { call_(object_, i); }

 private:
  void* object_;
  void (*call_)(void*, std::size_t);
};

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

  /// Stable index in [0, size()] of the calling thread within this pool:
  /// worker w (0-based) is w + 1, and every other thread, a parallel_for
  /// caller included, is 0. parallel_for bodies that run concurrently
  /// always see different indices, and a nested (inline) parallel_for
  /// sees its outer body's, so the index can pick per-thread scratch.
  std::size_t participant_index() const noexcept;

 private:
  struct Region;

  void worker_loop(std::size_t index);

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
