#include "fl/metrics.h"

#include <algorithm>
#include <limits>

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
  ZKA_CHECK(batch_size > 0, "evaluate_accuracy: batch_size %lld",
            static_cast<long long>(batch_size));
  auto model = factory(0);
  nn::set_flat_params(*model, params);
  const std::int64_t n = dataset.size();
  if (n == 0) return 0.0;
  std::int64_t hits = 0;
  for (std::int64_t begin = 0; begin < n; begin += batch_size) {
    const std::int64_t end = std::min(begin + batch_size, n);
    const tensor::Tensor batch = dataset.images.slice0(begin, end);
    const auto preds = model->forward(batch).argmax_rows();
    for (std::int64_t i = begin; i < end; ++i) {
      if (preds[static_cast<std::size_t>(i - begin)] ==
          dataset.labels[static_cast<std::size_t>(i)]) {
        ++hits;
      }
    }
  }
  return static_cast<double>(hits) / static_cast<double>(n);
}

}  // namespace zka::fl
