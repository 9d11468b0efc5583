// Sketched selection for the distance-based defenses: the O(n) server
// path that makes Krum/mKrum/Bulyan usable at production cohort sizes.
//
// The exact rules are O(n²·d) in pairwise distances — the wall between
// the paper's n = 100 rounds and the million-client engine. This layer
// splits the job in three:
//
//   1. **Project** every update through a seeded JL sign sketch
//      (tensor::JlSketch, d → k ≈ a few hundred, O(d) per update). In
//      streaming rounds the projection happens per stream_update, so the
//      server holds n·k sketch floats plus one O(d) running sum — never
//      all n full-dimension updates.
//   2. **Rank** on the sketches: one-shot Krum scores via a blocked Gram
//      pass (O(n²·k) time, O(n) memory per row block — the n×n matrix is
//      never materialized), or the iterative variant over a sketch-space
//      PairwiseMatrix for Bulyan-scale n. Same cancellation guard as the
//      exact path (distance.h), applied in sketch space.
//   3. **Re-check exactly at full dimension** before the final mean: the
//      selection boundary is where sketch noise can flip a decision, so
//      the ranks in a band around the cut are re-ordered by their exact
//      full-dimension squared distance to the centroid of the
//      confidently-benign pool. Everything the re-check (and the final
//      mean) needs at full dimension is a *small* index set — the band
//      plus whichever of selected/rejected is smaller — which is what the
//      streaming replay protocol (Aggregator::stream_replay_request)
//      fetches in a bounded second pass.
//
// Determinism contract: projection, ranking and re-check are pure
// functions of (updates, options) with fixed association orders — block
// grids for the Gram pass, index-ascending accumulation for sums, (score,
// index) tie-breaks for every ranking — so results are bitwise identical
// for any thread count.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "defense/aggregator.h"
#include "tensor/sketch.h"

namespace zka::defense {

struct SketchOptions {
  /// JL sketch dimension k; 0 disables sketching (exact path everywhere).
  std::size_t sketch_dim = 0;
  /// Seed of the sign pattern (shared by server replicas for agreement).
  std::uint64_t seed = 0x5ce7c41ULL;
  /// Per-side width B of the exact re-check band around the selection
  /// cut: ranks [m−B, m+B) are re-ordered by exact full-dimension
  /// distance to the benign-pool centroid. 0 trusts the sketch ranking.
  std::size_t recheck_band = 16;

  /// True when sketching pays off for this round shape: enabled, enough
  /// rows for the ranking to matter, and a dimension high enough that
  /// projecting (O(d)) beats just measuring exactly (also O(d) per pair
  /// but n² pairs). Callers fall back to the exact path otherwise.
  bool enabled_for(std::size_t n, std::size_t dim) const noexcept {
    return sketch_dim > 0 && n >= 8 && dim > 2 * sketch_dim;
  }
};

/// Projects every update into a row of the returned [n, k] row-major
/// matrix (k = sketch.sketch_dim()). Parallel over disjoint row chunks;
/// bitwise deterministic for any thread count.
std::vector<float> project_rows(const tensor::JlSketch& sketch,
                                std::span<const UpdateView> updates);

/// One-shot Krum scores over sketch rows [n, k]: score_i = sum of the
/// `num_neighbors` smallest squared distances from row i to the other
/// rows. Blocked Gram pass — O(n²·k) time, O(block·n) memory, the n×n
/// matrix is never materialized — with the distance.h cancellation guard
/// (near-colluding rows recomputed exactly in sketch space).
std::vector<double> sketched_krum_scores(std::span<const float> rows,
                                         std::size_t n, std::size_t k,
                                         std::size_t num_neighbors);

/// Ranking of all n updates by sketched Krum centrality, most central
/// first. One-shot: ascending (score, index). Iterative (the variant
/// Bulyan builds on): successive exclusion picks over a sketch-space
/// PairwiseMatrix first, remaining indices by their end-state score.
std::vector<std::size_t> sketched_order(std::span<const float> rows,
                                        std::size_t n, std::size_t k,
                                        std::size_t f, std::size_t m,
                                        bool iterative);

/// Everything finish_sketched_selection needs besides full-dimension row
/// access: the ranking, the cut, the re-check band, the centroid pool,
/// and `replay` — the ascending index set whose full-dimension rows the
/// finisher will ask for (the streaming server replays exactly these).
struct SketchedSelectionPlan {
  std::vector<std::size_t> order;  ///< all n indices, most central first
  std::size_t n = 0;
  std::size_t m = 0;        ///< selection size
  std::size_t band_lo = 0;  ///< band = ranks [m − band_lo, m + band_hi)
  std::size_t band_hi = 0;
  std::size_t pool = 0;     ///< centroid pool = order[0, pool)
  std::vector<std::size_t> replay;  ///< ascending, unique
};

/// Builds the plan from a ranking: clamps the band to [0, n], sizes the
/// centroid pool to max(m, n − f), and derives the minimal replay set
/// (band ∪ pool-complement ∪ whichever of selected/rejected the final
/// mean folds — always O(f + band), never O(n), which is what bounds the
/// streaming second pass).
SketchedSelectionPlan plan_sketched_selection(std::vector<std::size_t> order,
                                              std::size_t n, std::size_t f,
                                              std::size_t m,
                                              std::size_t band);

/// The exact full-dimension re-check: computes the pool centroid from
/// `sum_all` minus the replayed pool complement, re-orders the band ranks
/// by exact squared distance to it, and returns the final selection
/// (ascending indices). `full_row(i)` must be valid for every i in
/// plan.replay; `sum_all` is the index-ascending double sum of all n
/// updates.
std::vector<std::size_t> recheck_selection(
    const SketchedSelectionPlan& plan, std::span<const double> sum_all,
    const std::function<UpdateView(std::size_t)>& full_row, std::size_t dim);

/// recheck_selection plus the final unweighted mean of the selection,
/// folded from `sum_all` by adding the selected rows (m small) or
/// subtracting the rejected rows (m large), both index-ascending.
AggregationResult finish_sketched_selection(
    const SketchedSelectionPlan& plan, std::span<const double> sum_all,
    const std::function<UpdateView(std::size_t)>& full_row, std::size_t dim);

}  // namespace zka::defense
