#include "defense/coordwise.h"

#include <algorithm>
#include <bit>
#include <limits>
#include <vector>

#include "tensor/reduce.h"
#include "util/check.h"
#include "util/thread_pool.h"

namespace zka::defense {

void for_each_sorted_coordinate(
    std::span<const UpdateView> updates,
    const std::function<void(std::size_t, std::span<const float>)>& fn) {
  const std::size_t n = updates.size();
  if (n == 0) return;
  const std::size_t dim = updates.front().size();
  if constexpr (util::kContractsEnabled) {
    // Update-dimension agreement: the tile loads below read dim floats
    // from every row.
    for (std::size_t r = 0; r < n; ++r) {
      ZKA_DCHECK(updates[r].size() == dim,
                 "sorted-coordinate walk: update %zu has %zu coordinates, "
                 "expected %zu",
                 r, updates[r].size(), dim);
    }
  }
  const std::size_t rows = std::bit_ceil(n);
  const std::size_t nblocks = (dim + kCoordBlock - 1) / kCoordBlock;

  util::ThreadPool& pool = util::global_thread_pool();
  const std::size_t fork = pool.fork_width(n * dim);
  const std::size_t nchunks = fork > 1 ? std::min(nblocks, fork) : 1;

  // Scratch is allocated once up front — one tile plus one gather buffer
  // per chunk — instead of per block inside the parallel region, where
  // repeated allocation contends on the allocator in the round hot loop.
  // Peak footprint is unchanged: only ~pool-size tiles were ever live at
  // once before.
  std::vector<float> tiles(nchunks * rows * kCoordBlock);
  std::vector<float> columns(nchunks * n);

  // Each chunk owns a disjoint contiguous block range and walks it in
  // ascending order, so every coordinate still sees exactly the same tile
  // contents and comparator sequence as the one-allocation-per-block
  // version — bitwise identical for any thread count.
  pool.for_ranges(nblocks, nchunks, [&](std::size_t chunk, std::size_t b0,
                                        std::size_t b1) {
    float* const tile = tiles.data() + chunk * rows * kCoordBlock;
    float* const column = columns.data() + chunk * n;
    for (std::size_t b = b0; b < b1; ++b) {
      const std::size_t c0 = b * kCoordBlock;
      const std::size_t c1 = std::min(dim, c0 + kCoordBlock);
      const std::size_t width = c1 - c0;
      // Transpose-free load: row r of the tile is just a contiguous slice
      // of update r. Padding rows (and any leftovers from this chunk's
      // previous block) are refilled with +inf and sort past the real
      // values.
      std::fill_n(tile, rows * width,
                  std::numeric_limits<float>::infinity());
      for (std::size_t r = 0; r < n; ++r) {
        std::copy_n(updates[r].data() + c0, width, tile + r * width);
      }
      tensor::sort_columns(tile, rows, width);
      // Gather each sorted column (stride = width) into a small contiguous
      // buffer for the functor; the first n rows hold the real values.
      for (std::size_t c = 0; c < width; ++c) {
        for (std::size_t r = 0; r < n; ++r) column[r] = tile[r * width + c];
        fn(c0 + c, std::span<const float>(column, n));
      }
    }
  });
}

}  // namespace zka::defense
