#include "fl/metrics.h"

#include <algorithm>
#include <limits>

#include "data/loader.h"
#include "nn/loss.h"
#include "util/check.h"

namespace zka::fl {

double attack_success_rate(double acc_natk, double acc_max) noexcept {
  if (acc_natk <= 0.0) return std::numeric_limits<double>::quiet_NaN();
  return (acc_natk - acc_max) / acc_natk * 100.0;
}

double defense_pass_rate(std::int64_t passed, std::int64_t selected) noexcept {
  if (selected <= 0) return std::numeric_limits<double>::quiet_NaN();
  return static_cast<double>(passed) / static_cast<double>(selected) * 100.0;
}

double evaluate_accuracy(const models::ModelFactory& factory,
                         std::span<const float> params,
                         const data::Dataset& dataset,
                         std::int64_t batch_size) {
  return evaluate_accuracy(*factory(0), params, dataset, batch_size);
}

double evaluate_accuracy(nn::Module& model, std::span<const float> params,
                         const data::Dataset& dataset,
                         std::int64_t batch_size) {
  ZKA_CHECK(batch_size > 0, "evaluate_accuracy: batch_size %lld",
            static_cast<long long>(batch_size));
  nn::set_flat_params(model, params);
  if (dataset.size() == 0) return 0.0;
  const data::DataLoader loader(dataset, batch_size);  // dataset order
  data::Batch batch;
  std::int64_t hits = 0;
  for (std::int64_t b = 0; b < loader.num_batches(); ++b) {
    loader.batch(b, batch);
    hits += nn::correct_predictions(model.forward(batch.images), batch.labels);
  }
  return static_cast<double>(hits) / static_cast<double>(dataset.size());
}

}  // namespace zka::fl
