// Coordinate-wise statistic defenses (Yin et al. 2018): Median and
// Trimmed mean. They blend all updates, so DPR is undefined for them
// (the paper reports "NA").
//
// Both rules need all n values of a coordinate to compute its order
// statistic, so they cannot stream exactly. Constructed with a memory
// budget they stream through a documented approximation instead: a W-ary
// hierarchical tree (median-of-medians / trimmed-mean-of-trimmed-means)
// whose wave size W is derived from the budget, keeping peak server
// memory at O(W·d·log_W n) instead of n·d. The tree is bitwise
// deterministic for a fixed arrival order and budget, and collapses to
// the exact batch rule whenever one wave holds the whole round — but it
// is not the batch statistic in general, so streaming_exact() is false
// under a budget (see the contract note in aggregator.h). Without one, the
// rules buffer the round and are exact.
#pragma once

#include <functional>

#include "defense/aggregator.h"

namespace zka::defense {

/// Hierarchical W-ary fold shared by the coordinate-wise streaming paths:
/// arrivals fill level 0; any level reaching W items is reduced to one
/// item of the next level; finish() folds the partial levels bottom-up
/// (the carry from below joins a level *after* its complete items, i.e.
/// in arrival order). Peak memory is (W − 1)·d floats per level, with
/// ⌈log_W n⌉ levels.
class CoordTreeStream {
 public:
  using Reduce = std::function<Update(std::span<const UpdateView>)>;

  void begin(std::size_t n, std::size_t wave);
  void add(Update update, const Reduce& reduce);
  Update finish(const Reduce& reduce);

  bool active() const noexcept { return active_; }
  std::size_t expected() const noexcept { return n_; }
  std::size_t received() const noexcept { return received_; }
  std::size_t wave() const noexcept { return wave_; }

 private:
  bool active_ = false;
  std::size_t n_ = 0;
  std::size_t wave_ = 0;
  std::size_t received_ = 0;
  std::vector<std::vector<Update>> levels_;
};

/// Wave size for a coordinate-wise tree under `memory_budget_bytes`:
/// budget / update_bytes arrivals per wave, floored at 2 (a 1-ary tree
/// never reduces) and capped at n (one wave = exact batch rule).
std::size_t coord_tree_wave(std::size_t memory_budget_bytes, std::size_t dim,
                            std::size_t n);

class Median : public Aggregator {
 public:
  /// `memory_budget_bytes` > 0 opts into approximate tree streaming (see
  /// file comment); 0 keeps the batch rule, whose stream hooks forward to
  /// the Aggregator buffering default.
  explicit Median(std::size_t memory_budget_bytes = 0)
      : budget_(memory_budget_bytes) {}

  AggregationResult do_aggregate(std::span<const UpdateView> updates,
                              std::span<const std::int64_t> weights) override;
  bool selects_clients() const noexcept override { return false; }
  std::string name() const override { return "Median"; }

  bool supports_streaming() const noexcept override { return budget_ > 0; }
  bool streaming_exact() const noexcept override { return budget_ == 0; }
  void do_begin_stream(std::size_t dim,
                    std::span<const std::int64_t> weights) override;
  void do_stream_update(UpdateView update) override;
  AggregationResult finish_stream() override;

 private:
  std::size_t budget_;
  CoordTreeStream tree_;
};

class TrimmedMean : public Aggregator {
 public:
  /// Removes the `trim` largest and `trim` smallest values per coordinate
  /// before averaging. Requires updates.size() > 2 * trim at aggregate time.
  /// `memory_budget_bytes` > 0 opts into approximate tree streaming (0
  /// buffers, as for Median); each tree node trims
  /// min(trim, (count − 1) / 2) — the full bound at every node, a
  /// conservative (over-trimming, still robust) choice that equals the
  /// batch rule when one wave holds the round.
  explicit TrimmedMean(std::size_t trim, std::size_t memory_budget_bytes = 0)
      : trim_(trim), budget_(memory_budget_bytes) {}

  AggregationResult do_aggregate(std::span<const UpdateView> updates,
                              std::span<const std::int64_t> weights) override;
  bool selects_clients() const noexcept override { return false; }
  std::string name() const override { return "TRmean"; }

  std::size_t trim() const noexcept { return trim_; }

  bool supports_streaming() const noexcept override { return budget_ > 0; }
  bool streaming_exact() const noexcept override { return budget_ == 0; }
  void do_begin_stream(std::size_t dim,
                    std::span<const std::int64_t> weights) override;
  void do_stream_update(UpdateView update) override;
  AggregationResult finish_stream() override;

 private:
  std::size_t trim_;
  std::size_t budget_;
  CoordTreeStream tree_;
};

}  // namespace zka::defense
