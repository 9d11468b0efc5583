#include "util/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <exception>

namespace zka::util {
namespace {

// Per thread: the pool whose worker_loop runs on it and that worker's
// participant index.
thread_local const ThreadPool* t_worker_of = nullptr;
thread_local std::size_t t_worker_index = 0;

// Per thread, the pools whose parallel_for this thread is inside, as a
// stack of marks on the callers' frames (pools may nest in each other).
struct CallerMark {
  const ThreadPool* pool;
  const CallerMark* outer;
};
thread_local const CallerMark* t_caller_marks = nullptr;

bool calling(const ThreadPool* pool) noexcept {
  for (const CallerMark* m = t_caller_marks; m != nullptr; m = m->outer) {
    if (m->pool == pool) return true;
  }
  return false;
}

}  // namespace

/// One parallel_for's shared state. It lives on the caller's stack; the
/// caller leaves only after every worker that joined has left.
struct ThreadPool::Region {
  IndexFn body;
  std::size_t n;
  std::atomic<std::size_t> next{0};
  std::atomic<bool> failed{false};
  std::mutex error_mutex;
  std::exception_ptr first_error;

  Region(IndexFn b, std::size_t count) : body(b), n(count) {}

  void drain() noexcept {
    for (;;) {
      const std::size_t i = next.fetch_add(1);
      if (i >= n || failed.load(std::memory_order_relaxed)) return;
      try {
        body(i);
      } catch (...) {
        std::lock_guard lock(error_mutex);
        if (!first_error) first_error = std::current_exception();
        failed.store(true, std::memory_order_relaxed);
        return;
      }
    }
  }
};

ThreadPool::ThreadPool(std::size_t num_threads) {
  if (num_threads == 0) {
    num_threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i + 1); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

bool ThreadPool::inside() const noexcept {
  return t_worker_of == this || calling(this);
}

std::size_t ThreadPool::fork_width(std::size_t work,
                                   std::size_t fork_point) const noexcept {
  return work >= fork_point && size() > 1 && !inside() ? size() : 1;
}

void ThreadPool::for_ranges(std::size_t units, std::size_t ranges,
                            RangeFn body) {
  if (ranges <= 1) {
    if (units > 0) body(0, 0, units);
    return;
  }
  parallel_for(ranges, [&](std::size_t r) {
    const std::size_t lo = units * r / ranges;
    const std::size_t hi = units * (r + 1) / ranges;
    if (lo < hi) body(r, lo, hi);
  });
}

std::size_t ThreadPool::participant_index() const noexcept {
  return t_worker_of == this ? t_worker_index : 0;
}

void ThreadPool::parallel_for(std::size_t n, IndexFn body) {
  if (n == 0) return;
  if (inside()) {
    for (std::size_t i = 0; i < n; ++i) body(i);
    return;
  }
  // Callers from outside take turns, so index 0 has one holder at a time.
  std::lock_guard owner(region_owner_);
  const CallerMark mark{this, t_caller_marks};
  t_caller_marks = &mark;
  struct Unmark {
    const CallerMark* outer;
    ~Unmark() { t_caller_marks = outer; }
  } unmark{mark.outer};
  Region region(body, n);
  const std::size_t helpers = std::min(workers_.size(), n - 1);
  if (helpers > 0) {
    {
      std::lock_guard lock(mutex_);
      region_ = &region;
      seats_ = helpers;
    }
    cv_.notify_all();
  }
  region.drain();
  if (helpers > 0) {
    // Close the region to late workers, then wait for those inside it.
    std::unique_lock lock(mutex_);
    seats_ = 0;
    region_ = nullptr;
    region_done_.wait(lock, [this] { return active_ == 0; });
  }
  if (region.first_error) std::rethrow_exception(region.first_error);
}

void ThreadPool::worker_loop(std::size_t index) {
  t_worker_of = this;
  t_worker_index = index;
  std::unique_lock lock(mutex_);
  for (;;) {
    cv_.wait(lock, [this] { return stopping_ || seats_ > 0; });
    if (seats_ > 0) {
      --seats_;
      ++active_;
      Region& region = *region_;
      lock.unlock();
      region.drain();
      lock.lock();
      if (--active_ == 0) region_done_.notify_all();
    } else {
      return;  // stopping_, and no region to join
    }
  }
}

ThreadPool& global_thread_pool() {
  static ThreadPool pool([] {
    // ZKA_THREADS overrides the worker count (0 / unset / invalid keeps
    // the hardware default). Useful for benchmarking scaling curves and
    // for CI machines whose cgroup quota differs from the visible cores.
    if (const char* env = std::getenv("ZKA_THREADS")) {
      const long v = std::strtol(env, nullptr, 10);
      if (v > 0) return static_cast<std::size_t>(v);
    }
    return std::size_t{0};
  }());
  return pool;
}

}  // namespace zka::util
