#include "defense/distance.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "tensor/reduce.h"
#include "util/check.h"
#include "util/thread_pool.h"

namespace zka::defense {
namespace {

// Below either bound the Gram detour (pack + GEMM + correction scan) costs
// more than exact per-pair reductions.
constexpr std::size_t kGramMinRows = 8;
constexpr std::size_t kGramMinDim = 64;

// Update-dimension agreement: every pairwise reduction below assumes a
// rectangular [n, dim] block.
void dcheck_rectangular(std::span<const UpdateView> updates, std::size_t dim) {
  if constexpr (!util::kContractsEnabled) return;
  for (std::size_t k = 0; k < updates.size(); ++k) {
    ZKA_DCHECK(updates[k].size() == dim,
               "pairwise: update %zu has %zu coordinates, expected %zu", k,
               updates[k].size(), dim);
  }
}

}  // namespace

PairwiseMatrix pairwise_sq_distances(std::span<const UpdateView> updates) {
  const std::size_t n = updates.size();
  PairwiseMatrix d(n);
  if (n < 2) return d;
  const std::size_t dim = updates.front().size();
  dcheck_rectangular(updates, dim);

  if (n >= kGramMinRows && dim >= kGramMinDim) {
    std::vector<float> gram(n * n);
    std::vector<double> sqn(n);
    tensor::gram_matrix(updates, gram, sqn);
    // One task per row, since the triangular rows are unequal work. Task i
    // writes only row i's strictly-upper entries and their mirrors in
    // column i (below: row i's neighbor list), a pure function of the
    // input, so writes are disjoint and deterministic for any thread count.
    util::ThreadPool& pool = util::global_thread_pool();
    pool.for_ranges(n, pool.fork_width(n * dim) > 1 ? n : 1,
                    [&](std::size_t, std::size_t lo, std::size_t hi) {
      for (std::size_t i = lo; i < hi; ++i) {
        for (std::size_t j = i + 1; j < n; ++j) {
          const double scale = sqn[i] + sqn[j];
          double d2 = scale - 2.0 * static_cast<double>(gram[i * n + j]);
          // Cancellation guard: a small expanded distance (colluders, and
          // any negative round-off) is mostly float noise — recompute it
          // exactly so Krum's tiny-margin rankings stay trustworthy.
          if (d2 < kCorrectionThreshold * scale) {
            d2 = tensor::squared_distance(updates[i], updates[j]);
          }
          d(i, j) = d2;
          d(j, i) = d2;
        }
      }
    });
  } else {
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = i + 1; j < n; ++j) {
        const double d2 = tensor::squared_distance(updates[i], updates[j]);
        d(i, j) = d2;
        d(j, i) = d2;
      }
    }
  }
  return d;
}

PairwiseMatrix pairwise_cosine(std::span<const UpdateView> updates) {
  const std::size_t n = updates.size();
  PairwiseMatrix cs(n);
  if (n == 0) return cs;
  const std::size_t dim = updates.front().size();
  dcheck_rectangular(updates, dim);

  if (n >= kGramMinRows && dim >= kGramMinDim) {
    std::vector<float> gram(n * n);
    std::vector<double> sqn(n);
    tensor::gram_matrix(updates, gram, sqn);
    std::vector<double> inv_norm(n);
    for (std::size_t i = 0; i < n; ++i) {
      inv_norm[i] = sqn[i] > 0.0 ? 1.0 / std::sqrt(sqn[i]) : 0.0;
    }
    util::ThreadPool& pool = util::global_thread_pool();
    pool.for_ranges(n, pool.fork_width(n * dim) > 1 ? n : 1,
                    [&](std::size_t, std::size_t lo, std::size_t hi) {
      for (std::size_t i = lo; i < hi; ++i) {
        cs(i, i) = sqn[i] > 0.0 ? 1.0 : 0.0;
        for (std::size_t j = i + 1; j < n; ++j) {
          const double c =
              static_cast<double>(gram[i * n + j]) * inv_norm[i] * inv_norm[j];
          cs(i, j) = c;
          cs(j, i) = c;
        }
      }
    });
  } else {
    std::vector<double> sqn(n);
    for (std::size_t i = 0; i < n; ++i) {
      sqn[i] = tensor::squared_norm(updates[i]);
      cs(i, i) = sqn[i] > 0.0 ? 1.0 : 0.0;
    }
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = i + 1; j < n; ++j) {
        double c = 0.0;
        if (sqn[i] > 0.0 && sqn[j] > 0.0) {
          c = tensor::dot(updates[i], updates[j]) /
              (std::sqrt(sqn[i]) * std::sqrt(sqn[j]));
        }
        cs(i, j) = c;
        cs(j, i) = c;
      }
    }
  }
  return cs;
}

double krum_score(const PairwiseMatrix& sq_dist, std::size_t i,
                  std::size_t num_neighbors,
                  const std::vector<bool>& excluded) {
  const std::size_t n = sq_dist.size();
  ZKA_DCHECK(i < n, "krum_score: index %zu out of %zu updates", i, n);
  ZKA_DCHECK(excluded.size() == n,
             "krum_score: exclusion mask of %zu for %zu updates",
             excluded.size(), n);
  std::vector<double> dists;
  dists.reserve(n);
  const double* row = sq_dist.row(i);
  for (std::size_t j = 0; j < n; ++j) {
    if (j == i || excluded[j]) continue;
    dists.push_back(row[j]);
  }
  const std::size_t k = std::min(num_neighbors, dists.size());
  std::partial_sort(dists.begin(),
                    dists.begin() + static_cast<std::ptrdiff_t>(k),
                    dists.end());
  double score = 0.0;
  for (std::size_t j = 0; j < k; ++j) score += dists[j];
  return score;
}

void successive_krum_picks(const PairwiseMatrix& sq_dist,
                           std::size_t neighbors, std::size_t picks,
                           std::vector<bool>& excluded,
                           std::vector<std::size_t>& order) {
  const std::size_t n = sq_dist.size();
  ZKA_CHECK(excluded.size() == n,
            "successive_krum_picks: exclusion mask of %zu for %zu updates",
            excluded.size(), n);
  ZKA_CHECK(n <= std::numeric_limits<std::uint32_t>::max(),
            "successive_krum_picks: %zu updates overflow the index type", n);
  if (n == 0) return;
  // Row i's surviving neighbors, nearest first: lists[i·w, i·w + len[i])
  // by ascending (distance, index). Equal distances are equal doubles, so
  // their order cannot change a sum's bits; the index key only makes the
  // sort total. Each list is sorted once, by its own task.
  struct Neighbor {
    double dist;
    std::uint32_t index;
  };
  const std::size_t w = n - 1;
  std::vector<Neighbor> lists(n * w);
  std::vector<std::size_t> len(n, 0);
  util::ThreadPool& pool = util::global_thread_pool();
  pool.for_ranges(n, pool.fork_width(n * n) > 1 ? n : 1,
                  [&](std::size_t, std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      if (excluded[i]) continue;
      const double* row = sq_dist.row(i);
      Neighbor* list = lists.data() + i * w;
      for (std::size_t j = 0; j < n; ++j) {
        if (j == i || excluded[j]) continue;
        list[len[i]++] = {row[j], static_cast<std::uint32_t>(j)};
      }
      std::sort(list, list + len[i], [](const Neighbor& a, const Neighbor& b) {
        return a.dist < b.dist || (a.dist == b.dist && a.index < b.index);
      });
    }
  });

  std::size_t alive =
      static_cast<std::size_t>(std::count(excluded.begin(), excluded.end(),
                                          false));
  std::size_t last = n;  // previous pick, still in every survivor's list
  for (std::size_t round = 0; round < picks && alive > 0; ++round) {
    // krum_score's neighbor count: every other survivor once too few remain.
    const std::size_t k = std::min(neighbors, alive - 1);
    double best_score = std::numeric_limits<double>::infinity();
    std::size_t best = n;
    for (std::size_t i = 0; i < n; ++i) {
      if (excluded[i]) continue;
      // One pass drops the previous pick from the list and sums the first
      // k survivors in ascending order — krum_score's exact summation.
      Neighbor* list = lists.data() + i * w;
      std::size_t kept = 0;
      double score = 0.0;
      for (std::size_t t = 0; t < len[i]; ++t) {
        if (list[t].index == last) continue;
        if (kept < k) score += list[t].dist;
        list[kept++] = list[t];
      }
      len[i] = kept;
      if (score < best_score) {
        best_score = score;
        best = i;
      }
    }
    if (best == n) break;
    excluded[best] = true;
    --alive;
    last = best;
    order.push_back(best);
  }
}

}  // namespace zka::defense
