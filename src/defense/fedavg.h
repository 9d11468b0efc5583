// FedAvg (McMahan et al.): sample-count-weighted mean. Not robust; this is
// the paper's attack-free reference aggregator.
#pragma once

#include "defense/aggregator.h"

namespace zka::defense {

class FedAvg : public Aggregator {
 public:
  bool selects_clients() const noexcept override { return false; }
  std::string name() const override { return "FedAvg"; }

  /// A weighted mean folds one update at a time — coefficients fixed up
  /// front from the full weight list, one axpy per update in submission
  /// order — holding O(dim) server state instead of O(n·dim). The fold is
  /// the rule: aggregate() drives it (aggregator.h), so the batch and
  /// streaming answers are one computation.
  bool supports_streaming() const noexcept override { return true; }
  void do_begin_stream(std::size_t dim,
                    std::span<const std::int64_t> weights) override;
  void do_stream_update(UpdateView update) override;
  AggregationResult finish_stream() override;

 private:
  std::vector<double> stream_coeffs_;
  std::vector<double> stream_acc_;
  std::size_t stream_next_ = 0;
  bool streaming_ = false;
};

/// FedAvg mixing coefficients: weights normalized by their sum, or the
/// unweighted 1/n fallback when the total is zero.
std::vector<double> fedavg_coefficients(std::span<const std::int64_t> weights);

/// Unweighted mean of the given updates (shared helper; mKrum and Bulyan
/// average their selected subsets with it).
Update mean_of(std::span<const UpdateView> updates,
               const std::vector<std::size_t>& subset);

}  // namespace zka::defense
