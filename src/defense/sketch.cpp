#include "defense/sketch.h"

#include <algorithm>
#include <functional>
#include <utility>

#include "defense/distance.h"
#include "tensor/ops.h"
#include "tensor/reduce.h"
#include "util/check.h"
#include "util/prof.h"
#include "util/thread_pool.h"

namespace zka::defense {
namespace {

// Fixed row-block grid for the blocked Gram scorer: the grid is a pure
// function of n (never of thread count or chunk assignment), so every
// Gram entry — and hence every score — is bitwise reproducible however
// the blocks are distributed over workers. Targets ~1M live Gram floats
// per in-flight block so memory stays O(block·n) even at n = 1e5.
std::size_t score_block_rows(std::size_t n) {
  const std::size_t target = (std::size_t{1} << 20) / std::max<std::size_t>(n, 1);
  return std::clamp<std::size_t>(target, 8, 256);
}

}  // namespace

std::vector<float> project_rows(const tensor::JlSketch& sketch,
                                std::span<const UpdateView> updates) {
  ZKA_PROF_SCOPE("defense/sketch_project");
  const std::size_t n = updates.size();
  const std::size_t k = sketch.sketch_dim();
  const std::size_t dim = sketch.dim();
  std::vector<float> rows(n * k);
  util::ThreadPool& pool = util::global_thread_pool();
  const std::size_t width = pool.fork_width(n * dim);
  pool.for_ranges(n, width > 1 ? std::min(n, 4 * width) : 1,
                  [&](std::size_t, std::size_t lo, std::size_t hi) {
                    std::vector<double> scratch(k);
                    for (std::size_t i = lo; i < hi; ++i) {
                      sketch.project(updates[i], scratch,
                                     std::span<float>(rows.data() + i * k, k));
                    }
                  });
  return rows;
}

std::vector<double> sketched_krum_scores(std::span<const float> rows,
                                         std::size_t n, std::size_t k,
                                         std::size_t num_neighbors) {
  ZKA_PROF_SCOPE("defense/sketch_scores");
  ZKA_CHECK(rows.size() == n * k, "sketched_krum_scores: %zu floats for %zux%zu",
            rows.size(), n, k);
  ZKA_CHECK(n >= 2, "sketched_krum_scores: need at least 2 rows, got %zu", n);
  std::vector<double> sqn(n);
  for (std::size_t i = 0; i < n; ++i) {
    sqn[i] = tensor::squared_norm(rows.subspan(i * k, k));
  }

  const std::size_t neighbors = std::min(num_neighbors, n - 1);
  const std::size_t drop = n - 1 - neighbors;
  std::vector<double> scores(n);

  const std::size_t block = score_block_rows(n);
  const std::size_t nblocks = (n + block - 1) / block;
  util::ThreadPool& pool = util::global_thread_pool();
  const std::size_t width = pool.fork_width(n * k);
  pool.for_ranges(nblocks, width > 1 ? std::min(nblocks, 2 * width) : 1,
                  [&](std::size_t, std::size_t b_lo, std::size_t b_hi) {
    std::vector<float> gram(block * n);
    std::vector<double> dists;
    dists.reserve(n - 1);
    for (std::size_t b = b_lo; b < b_hi; ++b) {
      const std::size_t r0 = b * block;
      const std::size_t rcount = std::min(block, n - r0);
      tensor::gemm_a_bt(static_cast<std::int64_t>(rcount),
                        static_cast<std::int64_t>(n),
                        static_cast<std::int64_t>(k), 1.0f,
                        rows.data() + r0 * k, rows.data(), 0.0f, gram.data());
      for (std::size_t i = r0; i < r0 + rcount; ++i) {
        const float* grow = gram.data() + (i - r0) * n;
        dists.clear();
        for (std::size_t j = 0; j < n; ++j) {
          if (j == i) continue;
          const double scale = sqn[i] + sqn[j];
          double d2 = scale - 2.0 * static_cast<double>(grow[j]);
          // Same cancellation guard as distance.h, applied in sketch
          // space: near-colluding rows get an exact (double-accumulated)
          // recompute, which at k coordinates is cheap.
          if (d2 < kCorrectionThreshold * scale) {
            d2 = tensor::squared_distance(rows.subspan(i * k, k),
                                          rows.subspan(j * k, k));
          }
          dists.push_back(d2);
        }
        double score = 0.0;
        if (drop == 0) {
          for (const double d : dists) score += d;
        } else if (drop < neighbors) {
          // Cheaper to peel the few largest off the full sum. Sum order is
          // a pure function of the value multiset, so chunking never
          // changes the result.
          for (const double d : dists) score += d;
          std::partial_sort(dists.begin(),
                            dists.begin() + static_cast<std::ptrdiff_t>(drop),
                            dists.end(), std::greater<double>());
          for (std::size_t t = 0; t < drop; ++t) score -= dists[t];
        } else {
          std::partial_sort(
              dists.begin(),
              dists.begin() + static_cast<std::ptrdiff_t>(neighbors),
              dists.end());
          for (std::size_t t = 0; t < neighbors; ++t) score += dists[t];
        }
        scores[i] = score;
      }
    }
  });
  return scores;
}

std::vector<std::size_t> sketched_order(std::span<const float> rows,
                                        std::size_t n, std::size_t k,
                                        std::size_t f, std::size_t m,
                                        bool iterative) {
  ZKA_CHECK(n >= 2, "sketched_order: need at least 2 rows, got %zu", n);
  const std::size_t neighbors = n > f + 2 ? n - f - 2 : 1;
  std::vector<std::size_t> order;
  order.reserve(n);

  if (!iterative) {
    const std::vector<double> scores =
        sketched_krum_scores(rows, n, k, neighbors);
    std::vector<std::pair<double, std::size_t>> ranked;
    ranked.reserve(n);
    for (std::size_t i = 0; i < n; ++i) ranked.emplace_back(scores[i], i);
    std::sort(ranked.begin(), ranked.end());
    for (const auto& [score, i] : ranked) order.push_back(i);
    return order;
  }

  // Iterative (the variant Bulyan builds on): the same successive-exclusion
  // picks as MultiKrum::select, over a sketch-space pairwise matrix, then
  // the leftovers by their end-state score.
  std::vector<UpdateView> views;
  views.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    views.emplace_back(rows.data() + i * k, k);
  }
  const PairwiseMatrix sq_dist = pairwise_sq_distances(views);
  std::vector<bool> excluded(n, false);
  successive_krum_picks(sq_dist, neighbors, std::min(m, n), excluded, order);
  std::vector<std::pair<double, std::size_t>> rest;
  for (std::size_t i = 0; i < n; ++i) {
    if (excluded[i]) continue;
    rest.emplace_back(krum_score(sq_dist, i, neighbors, excluded), i);
  }
  std::sort(rest.begin(), rest.end());
  for (const auto& [score, i] : rest) order.push_back(i);
  return order;
}

SketchedSelectionPlan plan_sketched_selection(std::vector<std::size_t> order,
                                              std::size_t n, std::size_t f,
                                              std::size_t m,
                                              std::size_t band) {
  ZKA_CHECK(order.size() == n, "plan_sketched_selection: order of %zu for n=%zu",
            order.size(), n);
  SketchedSelectionPlan plan;
  plan.order = std::move(order);
  plan.n = n;
  plan.m = std::min(std::max<std::size_t>(m, 1), n);
  plan.band_lo = std::min(band, plan.m);
  plan.band_hi = std::min(band, n - plan.m);
  // A band entirely on one side of the cut can never move an index across
  // it — drop it so the replay set (and the centroid pass) stays minimal.
  if (plan.band_lo == 0 || plan.band_hi == 0) {
    plan.band_lo = plan.band_hi = 0;
  }
  plan.pool = std::min(n, std::max(plan.m, n > f ? n - f : plan.m));

  const auto& ord = plan.order;
  std::vector<std::size_t> replay;
  if (n - plan.m <= plan.m) {
    // Final mean folds by subtracting the rejected set, and the pool
    // complement (ranks ≥ pool ≥ m) is inside this suffix too.
    replay.assign(ord.begin() + static_cast<std::ptrdiff_t>(plan.m - plan.band_lo),
                  ord.end());
  } else {
    // Final mean folds the selected set directly; the pool complement is a
    // disjoint suffix.
    replay.assign(ord.begin(),
                  ord.begin() + static_cast<std::ptrdiff_t>(plan.m + plan.band_hi));
    for (std::size_t rank = std::max(plan.pool, plan.m + plan.band_hi);
         rank < n; ++rank) {
      replay.push_back(ord[rank]);
    }
  }
  std::sort(replay.begin(), replay.end());
  plan.replay = std::move(replay);
  return plan;
}

std::vector<std::size_t> recheck_selection(
    const SketchedSelectionPlan& plan, std::span<const double> sum_all,
    const std::function<UpdateView(std::size_t)>& full_row, std::size_t dim) {
  ZKA_PROF_SCOPE("defense/sketch_recheck");
  const std::size_t m = plan.m;
  std::vector<std::size_t> selection(plan.order.begin(),
                                     plan.order.begin() +
                                         static_cast<std::ptrdiff_t>(m));
  if (plan.band_lo + plan.band_hi == 0) {
    std::sort(selection.begin(), selection.end());
    return selection;
  }
  ZKA_CHECK(sum_all.size() == dim, "recheck_selection: sum of %zu for dim %zu",
            sum_all.size(), dim);

  // Pool centroid at full dimension, by subtraction: sum_all minus the
  // (small, index-ascending) pool complement.
  std::vector<double> centroid(sum_all.begin(), sum_all.end());
  std::vector<std::size_t> complement(
      plan.order.begin() + static_cast<std::ptrdiff_t>(plan.pool),
      plan.order.end());
  std::sort(complement.begin(), complement.end());
  for (const std::size_t i : complement) {
    tensor::axpy(-1.0, full_row(i), centroid);
  }
  const double inv_pool = 1.0 / static_cast<double>(plan.pool);
  for (double& c : centroid) c *= inv_pool;

  // Exact re-rank of the band by full-dimension distance to the centroid.
  std::vector<std::pair<double, std::size_t>> band;
  band.reserve(plan.band_lo + plan.band_hi);
  for (std::size_t rank = m - plan.band_lo; rank < m + plan.band_hi; ++rank) {
    const std::size_t i = plan.order[rank];
    band.emplace_back(tensor::squared_distance(full_row(i), centroid), i);
  }
  std::sort(band.begin(), band.end());

  selection.resize(m - plan.band_lo);
  for (std::size_t t = 0; t < plan.band_lo; ++t) {
    selection.push_back(band[t].second);
  }
  std::sort(selection.begin(), selection.end());
  return selection;
}

AggregationResult finish_sketched_selection(
    const SketchedSelectionPlan& plan, std::span<const double> sum_all,
    const std::function<UpdateView(std::size_t)>& full_row, std::size_t dim) {
  const std::size_t n = plan.n;
  const std::size_t m = plan.m;
  AggregationResult result;
  result.selected = recheck_selection(plan, sum_all, full_row, dim);
  ZKA_CHECK(sum_all.size() == dim,
            "finish_sketched_selection: sum of %zu for dim %zu", sum_all.size(),
            dim);

  std::vector<double> acc;
  if (n - m <= m) {
    // Mean by subtraction: fold out the rejected set (index-ascending).
    acc.assign(sum_all.begin(), sum_all.end());
    std::size_t next = 0;  // result.selected is ascending
    for (std::size_t i = 0; i < n; ++i) {
      if (next < result.selected.size() && result.selected[next] == i) {
        ++next;
        continue;
      }
      tensor::axpy(-1.0, full_row(i), acc);
    }
  } else {
    acc.assign(dim, 0.0);
    for (const std::size_t i : result.selected) {
      tensor::axpy(1.0, full_row(i), acc);
    }
  }
  const double inv_m = 1.0 / static_cast<double>(m);
  result.model.resize(dim);
  for (std::size_t j = 0; j < dim; ++j) {
    result.model[j] = static_cast<float>(acc[j] * inv_m);
  }
  return result;
}

}  // namespace zka::defense
