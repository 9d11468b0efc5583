// The paper's two evaluation metrics (Sec. V-B).
#pragma once

#include <cstdint>
#include <span>

#include "data/dataset.h"
#include "data/local_sgd.h"
#include "models/models.h"

namespace zka::fl {

/// Attack success rate (Eq. 4): relative accuracy drop, in percent.
/// acc_natk is the attack-free/defense-free accuracy; acc_max the best
/// accuracy the attacked run reached.
double attack_success_rate(double acc_natk, double acc_max) noexcept;

/// Defense pass rate (Eq. 5): passed / selected malicious submissions,
/// in percent. Returns NaN when no malicious client was ever selected
/// (e.g. statistic defenses where DPR is undefined).
double defense_pass_rate(std::int64_t passed, std::int64_t selected) noexcept;

/// Test accuracy of a flat parameter vector on a dataset, by batched
/// inference on a model the caller keeps: `params` is loaded into it, and
/// its layer buffers are reused across batches and calls. The serial
/// reference of the pool evaluation below.
double evaluate_accuracy(nn::Module& model, std::span<const float> params,
                         const data::Dataset& dataset,
                         std::int64_t batch_size = 64);

/// Rows per batch of the pool evaluation. Batch 2 is the fastest or within
/// the run-to-run spread of it on both tasks (BM_Eval, see
/// results/perf_breakdown.md), and it is smaller than the training batch
/// (LocalSgdOptions::batch_size, 32), so evaluating grows no replica's
/// layer buffers.
inline constexpr std::int64_t kEvalBatch = 2;

/// Same, on the thread pool: `params` is loaded into every participant's
/// replica, and each participant runs its share of the `batch_size`-row
/// batches through its own model and batch buffer. A row's logits do not
/// depend on the batch that holds it, and the hit count is an integer, so
/// the result equals the serial evaluation's bit for bit at every pool size
/// and batch size. Allocation-free once every replica has trained.
double evaluate_accuracy(data::ReplicaSet& replicas,
                         std::span<const float> params,
                         const data::Dataset& dataset,
                         std::int64_t batch_size = kEvalBatch);

}  // namespace zka::fl
