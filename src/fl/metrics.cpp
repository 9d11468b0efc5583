#include "fl/metrics.h"

#include <algorithm>
#include <atomic>
#include <limits>

#include "data/batch.h"
#include "nn/loss.h"
#include "util/check.h"
#include "util/thread_pool.h"

namespace zka::fl {

double attack_success_rate(double acc_natk, double acc_max) noexcept {
  if (acc_natk <= 0.0) return std::numeric_limits<double>::quiet_NaN();
  return (acc_natk - acc_max) / acc_natk * 100.0;
}

double defense_pass_rate(std::int64_t passed, std::int64_t selected) noexcept {
  if (selected <= 0) return std::numeric_limits<double>::quiet_NaN();
  return static_cast<double>(passed) / static_cast<double>(selected) * 100.0;
}

double evaluate_accuracy(nn::Module& model, std::span<const float> params,
                         const data::Dataset& dataset,
                         std::int64_t batch_size) {
  ZKA_CHECK(batch_size > 0, "evaluate_accuracy: batch_size %lld",
            static_cast<long long>(batch_size));
  nn::set_flat_params(model, params);
  const std::int64_t n = dataset.size();
  if (n == 0) return 0.0;
  data::Batch batch;
  std::int64_t hits = 0;
  for (std::int64_t begin = 0; begin < n; begin += batch_size) {
    data::fill_batch(dataset, begin, std::min(begin + batch_size, n), batch);
    hits += nn::correct_predictions(model.forward(batch.images), batch.labels);
  }
  return static_cast<double>(hits) / static_cast<double>(n);
}

double evaluate_accuracy(data::ReplicaSet& replicas,
                         std::span<const float> params,
                         const data::Dataset& dataset,
                         std::int64_t batch_size) {
  ZKA_CHECK(batch_size > 0, "evaluate_accuracy: batch_size %lld",
            static_cast<long long>(batch_size));
  replicas.load(params);
  const std::int64_t n = dataset.size();
  if (n == 0) return 0.0;
  util::ThreadPool& pool = util::global_thread_pool();
  // An integer sum, so the order the batches finish in does not matter.
  std::atomic<std::int64_t> hits{0};
  pool.parallel_for(
      static_cast<std::size_t>((n + batch_size - 1) / batch_size),
      [&](std::size_t b) {
        data::TrainScratch& mine = replicas.mine();
        const std::int64_t begin = static_cast<std::int64_t>(b) * batch_size;
        data::fill_batch(dataset, begin, std::min(begin + batch_size, n),
                         mine.batch);
        hits.fetch_add(nn::correct_predictions(
                           mine.model->forward(mine.batch.images),
                           mine.batch.labels),
                       std::memory_order_relaxed);
      });
  return static_cast<double>(hits.load()) / static_cast<double>(n);
}

}  // namespace zka::fl
