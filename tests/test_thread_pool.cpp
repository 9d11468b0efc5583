#include "util/thread_pool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

namespace zka::util {
namespace {

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(97);
  pool.parallel_for(97, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForZeroAndOne) {
  ThreadPool pool(2);
  std::atomic<int> calls{0};
  pool.parallel_for(0, [&](std::size_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 0);
  pool.parallel_for(1, [&](std::size_t i) {
    EXPECT_EQ(i, 0u);
    calls.fetch_add(1);
  });
  EXPECT_EQ(calls.load(), 1);
}

TEST(ThreadPool, ParallelForPropagatesException) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.parallel_for(10,
                                 [&](std::size_t i) {
                                   if (i == 5) {
                                     throw std::runtime_error("boom");
                                   }
                                 }),
               std::runtime_error);
}

TEST(ThreadPool, UsableAfterException) {
  ThreadPool pool(2);
  try {
    pool.parallel_for(4, [](std::size_t) { throw std::logic_error("x"); });
  } catch (const std::logic_error&) {
  }
  std::atomic<int> counter{0};
  pool.parallel_for(8, [&](std::size_t) { counter.fetch_add(1); });
  EXPECT_EQ(counter.load(), 8);
}

TEST(ThreadPool, SizeReportsWorkerCount) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.size(), 3u);
}

TEST(ThreadPool, GlobalPoolIsSingleton) {
  EXPECT_EQ(&global_thread_pool(), &global_thread_pool());
  EXPECT_GE(global_thread_pool().size(), 1u);
}

// Regression: parallel_for from inside a worker used to enqueue helper jobs
// behind the already-running outer tasks and block on them — a guaranteed
// deadlock with one worker. The fix runs re-entrant calls inline; these
// tests hang (and trip the ctest timeout) if it regresses.
TEST(ThreadPool, NestedParallelForDoesNotDeadlockWithOneWorker) {
  ThreadPool pool(1);
  std::atomic<int> counter{0};
  pool.parallel_for(4, [&](std::size_t) {
    pool.parallel_for(8, [&](std::size_t) { counter.fetch_add(1); });
  });
  EXPECT_EQ(counter.load(), 32);
}

TEST(ThreadPool, NestedParallelForCoversFullProduct) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(6 * 5);
  pool.parallel_for(6, [&](std::size_t i) {
    pool.parallel_for(5, [&](std::size_t j) { hits[i * 5 + j].fetch_add(1); });
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, TriplyNestedParallelFor) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  pool.parallel_for(2, [&](std::size_t) {
    pool.parallel_for(3, [&](std::size_t) {
      pool.parallel_for(4, [&](std::size_t) { counter.fetch_add(1); });
    });
  });
  EXPECT_EQ(counter.load(), 2 * 3 * 4);
}

TEST(ThreadPool, NestedParallelForPropagatesException) {
  ThreadPool pool(2);
  EXPECT_THROW(
      pool.parallel_for(3,
                        [&](std::size_t) {
                          pool.parallel_for(3, [&](std::size_t j) {
                            if (j == 2) throw std::runtime_error("inner");
                          });
                        }),
      std::runtime_error);
}

// Runs `n` bodies on `pool`, each holding its participant index for a
// moment; counts bodies that found their index already held.
int index_collisions(ThreadPool& pool, std::size_t n,
                     std::vector<std::atomic<int>>& holders) {
  std::atomic<int> collisions{0};
  pool.parallel_for(n, [&](std::size_t) {
    const std::size_t index = pool.participant_index();
    EXPECT_LE(index, pool.size());
    if (holders[index].fetch_add(1) != 0) collisions.fetch_add(1);
    std::atomic<int> spin{0};
    while (spin.fetch_add(1, std::memory_order_relaxed) < 200) {
    }
    holders[index].fetch_sub(1);
  });
  return collisions.load();
}

// Runs body(i) for i in {0, 1} on `pool`, each body waiting until both
// have started: they run at once, so one of them runs on a worker of
// `pool` and the other on the calling thread.
template <typename F>
void run_two_at_once(ThreadPool& pool, F&& body) {
  std::atomic<int> arrived{0};
  pool.parallel_for(2, [&](std::size_t i) {
    arrived.fetch_add(1);
    while (arrived.load() < 2) std::this_thread::yield();
    body(i);
  });
}

TEST(ThreadPool, ConcurrentBodiesNeverShareAParticipantIndex) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> holders(pool.size() + 1);
  EXPECT_EQ(index_collisions(pool, 2000, holders), 0);
  // Two outside threads calling at once (this one and another pool's
  // worker) take turns, so the caller index 0 has one holder at a time.
  ThreadPool outside(1);
  std::atomic<int> collisions{0};
  run_two_at_once(outside, [&](std::size_t) {
    collisions.fetch_add(index_collisions(pool, 2000, holders));
  });
  EXPECT_EQ(collisions.load(), 0);
}

TEST(ThreadPool, ParticipantIndexOfCallersAndWorkers) {
  ThreadPool pool(2);
  EXPECT_EQ(pool.participant_index(), 0u);  // not a worker
  std::atomic<std::size_t> seen[2] = {99, 99};
  run_two_at_once(pool, [&](std::size_t i) {
    seen[i].store(pool.participant_index());
  });
  const std::size_t caller = std::min(seen[0].load(), seen[1].load());
  const std::size_t worker = std::max(seen[0].load(), seen[1].load());
  EXPECT_EQ(caller, 0u);
  EXPECT_GE(worker, 1u);
  EXPECT_LE(worker, pool.size());
  ThreadPool other(1);
  std::atomic<int> on_other_worker{0};
  std::atomic<std::size_t> in_other[2] = {99, 99};
  run_two_at_once(other, [&](std::size_t i) {
    if (other.participant_index() != 0) on_other_worker.fetch_add(1);
    in_other[i].store(pool.participant_index());
  });
  EXPECT_EQ(on_other_worker.load(), 1);
  EXPECT_EQ(in_other[0].load(), 0u);  // one of these is a worker of
  EXPECT_EQ(in_other[1].load(), 0u);  // another pool
}

TEST(ThreadPool, NestedParallelForSeesOuterIndex) {
  ThreadPool pool(3);
  std::atomic<int> mismatches{0};
  std::atomic<int> inner_calls{0};
  pool.parallel_for(16, [&](std::size_t) {
    const std::size_t outer = pool.participant_index();
    pool.parallel_for(8, [&](std::size_t) {
      inner_calls.fetch_add(1);
      if (pool.participant_index() != outer) mismatches.fetch_add(1);
    });
  });
  EXPECT_EQ(inner_calls.load(), 16 * 8);
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(ThreadPool, ForkWidthIsTheOneForkRule) {
  constexpr std::size_t kPoint = 1000;
  ThreadPool single(1);
  ThreadPool pool(4);
  EXPECT_EQ(pool.fork_width(kPoint, kPoint), pool.size());
  EXPECT_EQ(pool.fork_width(kPoint * 50, kPoint), pool.size());
  EXPECT_EQ(pool.fork_width(kPoint - 1, kPoint), 1u);  // below the point
  EXPECT_EQ(pool.fork_width(kForkElems), pool.size());  // default point
  EXPECT_EQ(pool.fork_width(kForkElems - 1), 1u);
  EXPECT_EQ(single.fork_width(kPoint, kPoint), 1u);  // one worker
  // A caller inside its own parallel_for, alone or next to a worker.
  std::atomic<std::size_t> caller_width{99};
  pool.parallel_for(1, [&](std::size_t) {
    caller_width.store(pool.fork_width(kPoint, kPoint));
  });
  EXPECT_EQ(caller_width.load(), 1u);
  std::atomic<std::size_t> widths[2] = {99, 99};
  std::atomic<std::size_t> on_worker{0};
  run_two_at_once(pool, [&](std::size_t i) {
    if (pool.participant_index() != 0) on_worker.fetch_add(1);
    widths[i].store(pool.fork_width(kPoint, kPoint));
  });
  EXPECT_EQ(on_worker.load(), 1u);
  EXPECT_EQ(widths[0].load(), 1u);
  EXPECT_EQ(widths[1].load(), 1u);
  // Inside another pool's work this pool still forks.
  std::atomic<std::size_t> other_width{99};
  single.parallel_for(1, [&](std::size_t) {
    other_width.store(pool.fork_width(kPoint, kPoint));
  });
  EXPECT_EQ(other_width.load(), pool.size());
  EXPECT_EQ(pool.fork_width(kPoint, kPoint), pool.size());  // after leaving
}

TEST(ThreadPool, ForRangesCoversEveryUnitOnceInAscendingRanges) {
  ThreadPool single(1);
  ThreadPool pool(4);
  for (ThreadPool* p : {&single, &pool}) {
    for (const std::size_t units : {0u, 1u, 7u, 64u}) {
      for (std::size_t ranges = 1; ranges <= 9; ++ranges) {
        std::vector<std::atomic<int>> hits(units);
        // Each range index records its [lo, hi) once.
        std::vector<std::atomic<std::size_t>> lo_of(ranges);
        std::vector<std::atomic<std::size_t>> hi_of(ranges);
        std::vector<std::atomic<int>> calls(ranges);
        p->for_ranges(units, ranges,
                      [&](std::size_t r, std::size_t lo, std::size_t hi) {
                        ASSERT_LT(r, ranges);
                        ASSERT_LT(lo, hi);
                        ASSERT_LE(hi, units);
                        calls[r].fetch_add(1);
                        lo_of[r].store(lo);
                        hi_of[r].store(hi);
                        for (std::size_t u = lo; u < hi; ++u) {
                          hits[u].fetch_add(1);
                        }
                      });
        for (std::size_t u = 0; u < units; ++u) {
          EXPECT_EQ(hits[u].load(), 1)
              << "unit " << u << " of " << units << ", " << ranges
              << " ranges";
        }
        // Non-empty ranges ascend with their index and tile [0, units).
        std::size_t next = 0;
        for (std::size_t r = 0; r < ranges; ++r) {
          EXPECT_LE(calls[r].load(), 1);
          if (calls[r].load() == 0) continue;
          EXPECT_EQ(lo_of[r].load(), next) << units << " units, range " << r;
          next = hi_of[r].load();
        }
        EXPECT_EQ(next, units) << ranges << " ranges";
      }
    }
  }
}

TEST(ThreadPool, ParallelForComputesCorrectSum) {
  ThreadPool pool(4);
  std::vector<long> out(1000);
  pool.parallel_for(out.size(),
                    [&](std::size_t i) { out[i] = static_cast<long>(i) * 2; });
  const long sum = std::accumulate(out.begin(), out.end(), 0L);
  EXPECT_EQ(sum, 999L * 1000L);
}

}  // namespace
}  // namespace zka::util
