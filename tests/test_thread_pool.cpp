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
