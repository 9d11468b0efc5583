#include "defense/krum.h"

#include <algorithm>

#include "defense/distance.h"
#include "defense/fedavg.h"
#include "tensor/reduce.h"
#include "util/check.h"
#include "util/prof.h"

namespace zka::defense {

std::vector<std::size_t> MultiKrum::select(
    std::span<const UpdateView> updates) const {
  const std::size_t n = updates.size();
  ZKA_CHECK(n > 0, "MultiKrum::select: no updates");
  // f/n feasibility: the scores are meaningless once every update could be
  // Byzantine. (The full Blanchard bound n > 2f + 2 is deliberately not
  // enforced; small rounds degrade to fewer neighbors below.)
  ZKA_CHECK(n == 1 || f_ < n,
            "MultiKrum: assumed Byzantine count f=%zu must be < n=%zu", f_, n);
  const std::size_t m = selection_size(n);
  if (n == 1) return {0};
  const std::size_t dim = updates.front().size();

  if (sketch_.enabled_for(n, dim)) {
    const tensor::JlSketch sketch(dim, sketch_.sketch_dim, sketch_.seed);
    const std::vector<float> rows = project_rows(sketch, updates);
    const SketchedSelectionPlan plan = plan_sketched_selection(
        sketched_order(rows, n, sketch_.sketch_dim, f_, m, iterative_), n, f_,
        m, sketch_.recheck_band);
    std::vector<double> sum_all(dim, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
      tensor::axpy(1.0, updates[i], sum_all);
    }
    return recheck_selection(
        plan, sum_all, [&](std::size_t i) { return updates[i]; }, dim);
  }

  // Krum needs n - f - 2 >= 1 neighbors; degrade gracefully on tiny rounds.
  const std::size_t neighbors = n > f_ + 2 ? n - f_ - 2 : 1;

  const PairwiseMatrix sq_dist = pairwise_sq_distances(updates);
  std::vector<bool> excluded(n, false);
  std::vector<std::size_t> selected;
  selected.reserve(m);

  if (!iterative_) {
    // One-shot scoring: rank all updates, keep the m lowest scores.
    std::vector<std::pair<double, std::size_t>> ranked;
    ranked.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      ranked.emplace_back(krum_score(sq_dist, i, neighbors, excluded), i);
    }
    std::sort(ranked.begin(), ranked.end());
    for (std::size_t k = 0; k < m; ++k) selected.push_back(ranked[k].second);
    std::sort(selected.begin(), selected.end());
    return selected;
  }

  successive_krum_picks(sq_dist, neighbors, m, excluded, selected);
  std::sort(selected.begin(), selected.end());
  return selected;
}

std::vector<std::size_t> MultiKrum::select(
    const std::vector<Update>& updates) const {
  const std::vector<UpdateView> views = as_views(updates);
  return select(std::span<const UpdateView>(views));
}

AggregationResult MultiKrum::do_aggregate(std::span<const UpdateView> updates,
                                       std::span<const std::int64_t> weights) {
  ZKA_PROF_SCOPE("aggregate/mkrum");
  validate_updates(updates, weights);
  AggregationResult result;
  result.selected = select(updates);
  result.model = mean_of(updates, result.selected);
  return result;
}

void MultiKrum::do_begin_stream(std::size_t dim,
                             std::span<const std::int64_t> weights) {
  if (!supports_streaming()) return Aggregator::do_begin_stream(dim, weights);
  ZKA_CHECK(!streaming_, "%s: begin_stream during an open stream",
            name().c_str());
  const std::size_t n = weights.size();
  ZKA_CHECK(n == 1 || f_ < n,
            "MultiKrum: assumed Byzantine count f=%zu must be < n=%zu", f_, n);
  streaming_ = true;
  stream_dim_ = dim;
  stream_n_ = n;
  stream_next_ = 0;
  stream_planned_ = false;
  stream_replay_next_ = 0;
  stream_weights_.assign(weights.begin(), weights.end());
  stream_buffered_ = n == 1 || !sketch_.enabled_for(n, dim);
  if (stream_buffered_) {
    stream_buffer_.clear();
    stream_buffer_.reserve(n);
    return;
  }
  stream_sketch_.emplace(dim, sketch_.sketch_dim, sketch_.seed);
  stream_rows_.resize(n * sketch_.sketch_dim);
  stream_scratch_.resize(sketch_.sketch_dim);
  stream_sum_.assign(dim, 0.0);
}

void MultiKrum::do_stream_update(UpdateView update) {
  if (!supports_streaming()) return Aggregator::do_stream_update(update);
  ZKA_PROF_SCOPE("aggregate/mkrum_stream");
  ZKA_CHECK(streaming_, "%s: stream_update without begin_stream",
            name().c_str());
  ZKA_CHECK(stream_next_ < stream_n_,
            "%s: more updates streamed than weights announced (%zu)",
            name().c_str(), stream_n_);
  if (stream_buffered_) {
    stream_buffer_.emplace_back(update.begin(), update.end());
  } else {
    stream_sketch_->project(
        update, stream_scratch_,
        std::span<float>(stream_rows_.data() + stream_next_ * sketch_.sketch_dim,
                         sketch_.sketch_dim));
    tensor::axpy(1.0, update, std::span<double>(stream_sum_));
  }
  ++stream_next_;
}

std::span<const std::size_t> MultiKrum::stream_replay_request() {
  if (!supports_streaming()) return Aggregator::stream_replay_request();
  ZKA_CHECK(streaming_, "%s: stream_replay_request without begin_stream",
            name().c_str());
  ZKA_CHECK(stream_next_ == stream_n_,
            "%s: %zu of %zu announced updates streamed", name().c_str(),
            stream_next_, stream_n_);
  if (stream_buffered_) return {};
  if (!stream_planned_) {
    stream_plan_ = plan_sketched_selection(
        sketched_order(stream_rows_, stream_n_, sketch_.sketch_dim, f_,
                       selection_size(stream_n_), /*iterative=*/false),
        stream_n_, f_, selection_size(stream_n_), sketch_.recheck_band);
    stream_replayed_.resize(stream_plan_.replay.size() * stream_dim_);
    stream_replay_next_ = 0;
    stream_planned_ = true;
  }
  return stream_plan_.replay;
}

void MultiKrum::do_stream_replay(std::size_t index, UpdateView update) {
  ZKA_CHECK(streaming_ && stream_planned_,
            "%s: stream_replay before stream_replay_request", name().c_str());
  ZKA_CHECK(stream_replay_next_ < stream_plan_.replay.size(),
            "%s: more replays than requested (%zu)", name().c_str(),
            stream_plan_.replay.size());
  ZKA_CHECK(index == stream_plan_.replay[stream_replay_next_],
            "%s: replay %zu out of order, expected %zu", name().c_str(), index,
            stream_plan_.replay[stream_replay_next_]);
  std::copy(update.begin(), update.end(),
            stream_replayed_.begin() +
                static_cast<std::ptrdiff_t>(stream_replay_next_ * stream_dim_));
  ++stream_replay_next_;
}

AggregationResult MultiKrum::finish_stream() {
  if (!supports_streaming()) return Aggregator::finish_stream();
  ZKA_CHECK(streaming_, "%s: finish_stream without begin_stream",
            name().c_str());
  ZKA_CHECK(stream_next_ == stream_n_,
            "%s: %zu of %zu announced updates streamed", name().c_str(),
            stream_next_, stream_n_);
  if (stream_buffered_) {
    // Rows and weights were admitted on the way in; run the exact rule.
    const std::vector<UpdateView> views = as_views(stream_buffer_);
    AggregationResult result =
        do_aggregate(std::span<const UpdateView>(views),
                     std::span<const std::int64_t>(stream_weights_));
    reset_stream();
    return result;
  }
  ZKA_CHECK(stream_planned_,
            "%s: finish_stream before stream_replay_request", name().c_str());
  ZKA_CHECK(stream_replay_next_ == stream_plan_.replay.size(),
            "%s: %zu of %zu requested replays served", name().c_str(),
            stream_replay_next_, stream_plan_.replay.size());
  const auto full_row = [&](std::size_t i) -> UpdateView {
    const auto it = std::lower_bound(stream_plan_.replay.begin(),
                                     stream_plan_.replay.end(), i);
    ZKA_CHECK(it != stream_plan_.replay.end() && *it == i,
              "%s: full row %zu was never replayed", name().c_str(), i);
    const std::size_t pos =
        static_cast<std::size_t>(it - stream_plan_.replay.begin());
    return UpdateView(stream_replayed_.data() + pos * stream_dim_, stream_dim_);
  };
  AggregationResult result = finish_sketched_selection(
      stream_plan_, stream_sum_, full_row, stream_dim_);
  reset_stream();
  return result;
}

void MultiKrum::reset_stream() {
  streaming_ = false;
  stream_buffered_ = false;
  stream_planned_ = false;
  stream_dim_ = 0;
  stream_n_ = 0;
  stream_next_ = 0;
  stream_replay_next_ = 0;
  stream_sketch_.reset();
  // clear() only: capacity stays with the aggregator so the next round's
  // begin_stream reuses it instead of reallocating inside the round loop.
  stream_weights_.clear();
  stream_rows_.clear();
  stream_sum_.clear();
  stream_scratch_.clear();
  stream_buffer_.clear();
  stream_replayed_.clear();
  stream_plan_ = {};
}

}  // namespace zka::defense
