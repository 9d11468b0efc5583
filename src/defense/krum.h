// Krum / Multi-Krum (Blanchard et al., NeurIPS 2017).
//
// Each update is scored by the sum of squared L2 distances to its
// n - f - 2 nearest neighbors; low score means "centrally located".
// Multi-Krum iteratively selects the lowest-scoring update m times
// (rescoring after each removal) and averages the selection.
//
// With SketchOptions::sketch_dim set, rounds big enough to care rank on
// JL sketches and re-check the selection boundary exactly at full
// dimension (defense/sketch.h); the one-shot variant then also streams —
// O(n·k) sketch state plus one O(d) running sum instead of n·d buffers —
// using the replay protocol in aggregator.h for the exact second pass.
// That stream is the one-shot sketched rule: aggregate() drives it.
#pragma once

#include <optional>

#include "defense/aggregator.h"
#include "defense/sketch.h"

namespace zka::defense {

class MultiKrum : public Aggregator {
 public:
  /// `num_byzantine` is the assumed attacker bound f; `num_selected` is m
  /// (0 selects the default m = n - f at aggregate time; m = 1 is plain
  /// Krum). By default all updates are scored once and the m lowest-score
  /// ones are kept; `iterative` re-scores after each removal (the variant
  /// Bulyan builds on). One-shot scoring is the robust choice when
  /// colluding attackers submit identical updates: under iterative
  /// selection with large m, a mutual-distance-zero pair wins the tail
  /// slots once most benign updates are already excluded.
  MultiKrum(std::size_t num_byzantine, std::size_t num_selected = 0,
            bool iterative = false, SketchOptions sketch = {})
      : f_(num_byzantine),
        m_(num_selected),
        iterative_(iterative),
        sketch_(sketch) {}

  AggregationResult do_aggregate(std::span<const UpdateView> updates,
                              std::span<const std::int64_t> weights) override;
  bool selects_clients() const noexcept override { return true; }
  std::string name() const override { return m_ == 1 ? "Krum" : "mKrum"; }

  /// The selection indices for a given round, without averaging (used by
  /// Bulyan, which post-processes the selected set).
  std::vector<std::size_t> select(std::span<const UpdateView> updates) const;
  std::vector<std::size_t> select(const std::vector<Update>& updates) const;

  // Streaming (one-shot sketched variant only): sketches fold per
  // stream_update, the ranking happens at stream_replay_request() time,
  // and the requested O(f + band) updates return once more for the exact
  // re-check + final mean. Rounds where sketching does not apply (small
  // n, low dim) silently copy the rows and run the exact rule. Without a
  // sketch (or when iterative) the rule cannot fold: the stream hooks
  // forward to the Aggregator buffering default, and do_aggregate
  // averages the select() set (which sketches the iterative ranking too).
  bool supports_streaming() const noexcept override {
    return sketch_.sketch_dim > 0 && !iterative_;
  }
  void do_begin_stream(std::size_t dim,
                    std::span<const std::int64_t> weights) override;
  void do_stream_update(UpdateView update) override;
  std::span<const std::size_t> stream_replay_request() override;
  void do_stream_replay(std::size_t index, UpdateView update) override;
  AggregationResult finish_stream() override;

 private:
  std::size_t selection_size(std::size_t n) const {
    const std::size_t m = m_ == 0 ? (n > f_ ? n - f_ : 1) : m_;
    return std::min(m, n);
  }
  void reset_stream();

  std::size_t f_;
  std::size_t m_;
  bool iterative_;
  SketchOptions sketch_;

  // Streaming state (empty between rounds).
  bool streaming_ = false;
  bool stream_buffered_ = false;  ///< degenerate round: exact rule on a buffer
  std::size_t stream_dim_ = 0;
  std::size_t stream_n_ = 0;
  std::size_t stream_next_ = 0;
  std::vector<std::int64_t> stream_weights_;
  std::optional<tensor::JlSketch> stream_sketch_;
  std::vector<float> stream_rows_;      ///< n × k sketches
  std::vector<double> stream_sum_;      ///< index-ascending Σ of all updates
  std::vector<double> stream_scratch_;  ///< k doubles for project()
  std::vector<Update> stream_buffer_;   ///< degenerate mode only
  bool stream_planned_ = false;
  SketchedSelectionPlan stream_plan_;
  std::vector<float> stream_replayed_;  ///< replay.size() × dim
  std::size_t stream_replay_next_ = 0;
};

}  // namespace zka::defense
