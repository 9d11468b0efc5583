#include "defense/fedavg.h"

#include "tensor/reduce.h"
#include "util/check.h"
#include "util/prof.h"

namespace zka::defense {

std::vector<double> fedavg_coefficients(
    std::span<const std::int64_t> weights) {
  double total = 0.0;
  for (const std::int64_t w : weights) total += static_cast<double>(w);
  std::vector<double> coeffs(weights.size());
  if (total <= 0.0) {
    // All-zero weights degenerate to the unweighted mean.
    for (auto& c : coeffs) c = 1.0 / static_cast<double>(weights.size());
  } else {
    for (std::size_t k = 0; k < weights.size(); ++k) {
      coeffs[k] = static_cast<double>(weights[k]) / total;
    }
  }
  return coeffs;
}

void FedAvg::do_begin_stream(std::size_t dim,
                          std::span<const std::int64_t> weights) {
  ZKA_CHECK(!streaming_, "FedAvg: begin_stream during an open stream");
  stream_coeffs_ = fedavg_coefficients(weights);
  stream_acc_.assign(dim, 0.0);
  stream_next_ = 0;
  streaming_ = true;
}

void FedAvg::do_stream_update(UpdateView update) {
  ZKA_PROF_SCOPE("aggregate/fedavg_stream");
  ZKA_CHECK(streaming_, "FedAvg: stream_update without begin_stream");
  ZKA_CHECK(stream_next_ < stream_coeffs_.size(),
            "FedAvg: more updates streamed than weights announced (%zu)",
            stream_coeffs_.size());
  // Length and finiteness are checked by Aggregator::stream_update
  // before this hook runs (finiteness by the ingress layer,
  // defense/sanitize.h).
  tensor::axpy(stream_coeffs_[stream_next_], update,
               std::span<double>(stream_acc_));
  ++stream_next_;
}

AggregationResult FedAvg::finish_stream() {
  ZKA_CHECK(streaming_, "FedAvg: finish_stream without begin_stream");
  ZKA_CHECK(stream_next_ == stream_coeffs_.size(),
            "FedAvg: %zu of %zu announced updates streamed", stream_next_,
            stream_coeffs_.size());
  AggregationResult result;
  result.model.resize(stream_acc_.size());
  for (std::size_t i = 0; i < stream_acc_.size(); ++i) {
    result.model[i] = static_cast<float>(stream_acc_[i]);
  }
  streaming_ = false;
  stream_coeffs_.clear();
  // clear() only: the capacity stays with the aggregator so the next
  // round's begin_stream assign() reuses it instead of reallocating dim
  // doubles inside the round hot loop. The accumulator lives exactly as
  // long as the aggregator either way.
  stream_acc_.clear();
  return result;
}

Update mean_of(std::span<const UpdateView> updates,
               const std::vector<std::size_t>& subset) {
  ZKA_CHECK(!subset.empty(), "mean_of: empty subset");
  ZKA_CHECK(!updates.empty(), "mean_of: no updates");
  const std::size_t dim = updates.front().size();
  std::vector<UpdateView> rows;
  rows.reserve(subset.size());
  for (const std::size_t k : subset) {
    ZKA_CHECK(k < updates.size(), "mean_of: index %zu out of %zu updates", k,
              updates.size());
    rows.push_back(updates[k]);
  }
  const std::vector<double> ones(subset.size(), 1.0);
  std::vector<double> acc(dim);
  tensor::weighted_sum(rows, ones, acc);
  Update mean(dim);
  for (std::size_t i = 0; i < dim; ++i) {
    mean[i] = static_cast<float>(acc[i] / static_cast<double>(subset.size()));
  }
  return mean;
}

}  // namespace zka::defense
