#include "defense/fltrust.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "tensor/reduce.h"
#include "util/check.h"
#include "util/prof.h"

namespace zka::defense {

FlTrust::FlTrust(data::Dataset root, const models::ModelFactory& factory,
                 data::LocalSgdOptions options, std::uint64_t seed)
    : root_(std::move(root)), options_(options), rng_(seed) {
  ZKA_CHECK(root_.size() > 0, "FlTrust: root dataset is empty");
  // Every parameter is loaded from w(t) before it trains, so the seed is
  // immaterial.
  scratch_.model = factory(0);
}

void FlTrust::begin_round(std::span<const float> global_model,
                          std::int64_t round) {
  global_.assign(global_model.begin(), global_model.end());

  // Train the server's reference update from the broadcast model.
  util::Rng round_rng = rng_.split(static_cast<std::uint64_t>(round) + 1);
  scratch_.indices.resize(static_cast<std::size_t>(root_.size()));
  std::iota(scratch_.indices.begin(), scratch_.indices.end(), std::int64_t{0});
  data::local_sgd(global_, root_, options_, round_rng, scratch_,
                  server_update_);
}

AggregationResult FlTrust::do_aggregate(std::span<const UpdateView> updates,
                                     std::span<const std::int64_t> weights) {
  ZKA_PROF_SCOPE("aggregate/fltrust");
  validate_updates(updates, weights);
  ZKA_CHECK(global_.size() == updates.front().size() &&
                server_update_.size() == updates.front().size(),
            "FlTrust::aggregate without a matching begin_round "
            "(round dim %zu, update dim %zu)",
            global_.size(), updates.front().size());
  const std::size_t n = updates.size();
  const std::size_t dim = updates.front().size();

  // Deltas relative to the broadcast model. The client delta is
  // materialized in a reused scratch (not expanded algebraically): deltas
  // are tiny relative to the model, so the cosine must be computed on the
  // exact differences to keep trust scores meaningful.
  std::vector<float> server_delta(dim);
  for (std::size_t i = 0; i < dim; ++i) {
    server_delta[i] = server_update_[i] - global_[i];
  }
  const double server_sqnorm = tensor::squared_norm(server_delta);
  const double server_norm = std::sqrt(server_sqnorm);

  last_scores_.assign(n, 0.0);
  std::vector<double> aggregated(dim, 0.0);
  double score_total = 0.0;
  AggregationResult result;
  std::vector<float> delta(dim);
  for (std::size_t k = 0; k < n; ++k) {
    for (std::size_t i = 0; i < dim; ++i) {
      delta[i] = updates[k][i] - global_[i];
    }
    // Trust score: ReLU(cosine similarity to the server delta).
    const double sqnorm = tensor::squared_norm(delta);
    double cos = 0.0;
    if (sqnorm > 0.0 && server_sqnorm > 0.0) {
      cos = tensor::dot(delta, server_delta) /
            (std::sqrt(sqnorm) * server_norm);
    }
    const double trust = std::max(cos, 0.0);
    last_scores_[k] = trust;
    if (trust <= 0.0) continue;
    result.selected.push_back(k);
    score_total += trust;
    // Normalize the client delta to the server delta's magnitude.
    const double norm = std::sqrt(sqnorm);
    const double rescale = norm > 0.0 ? server_norm / norm : 0.0;
    tensor::axpy(trust * rescale, std::span<const float>(delta),
                 std::span<double>(aggregated));
  }

  result.model = global_;
  if (score_total > 0.0) {
    for (std::size_t i = 0; i < dim; ++i) {
      result.model[i] += static_cast<float>(aggregated[i] / score_total);
    }
  }
  // If every update was distrusted, the model simply does not move.
  return result;
}

}  // namespace zka::defense
