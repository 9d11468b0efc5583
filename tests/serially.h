// Serial reference runs for the serial-vs-parallel tests.
#pragma once

#include <cstddef>
#include <optional>
#include <type_traits>
#include <utility>

#include "util/thread_pool.h"

namespace zka::test {

/// Runs f() inside a one-index parallel_for of the global pool and returns
/// its result. There every nested fork runs inline on this thread: a
/// nested parallel_for by the pool's nesting rule, a kernel's own range
/// split by its fork rule (ThreadPool::fork_width). So f runs exactly as
/// it would in a process with one thread.
template <typename F>
auto serially(F&& f) {
  using R = std::invoke_result_t<F&>;
  if constexpr (std::is_void_v<R>) {
    util::global_thread_pool().parallel_for(1, [&](std::size_t) { f(); });
  } else {
    std::optional<R> result;
    util::global_thread_pool().parallel_for(
        1, [&](std::size_t) { result.emplace(f()); });
    return std::move(*result);
  }
}

}  // namespace zka::test
