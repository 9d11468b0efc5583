// The paper's two evaluation metrics (Sec. V-B).
#pragma once

#include <cstdint>
#include <span>

#include "data/dataset.h"
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

/// Test accuracy of a flat parameter vector on a dataset (batched
/// inference through a freshly materialized model).
double evaluate_accuracy(const models::ModelFactory& factory,
                         std::span<const float> params,
                         const data::Dataset& dataset,
                         std::int64_t batch_size = 64);

/// Same, on a model the caller keeps (e.g. a training replica): `params`
/// is loaded into it, and its layer buffers are reused across batches and
/// calls.
double evaluate_accuracy(nn::Module& model, std::span<const float> params,
                         const data::Dataset& dataset,
                         std::int64_t batch_size = 64);

}  // namespace zka::fl
