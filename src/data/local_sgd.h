// Local SGD from a global model (Eq. 1): the one training loop behind
// benign clients (fl::Client), the label-flipping attacker and FLTrust's
// server-side reference update.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "data/loader.h"
#include "models/models.h"
#include "nn/loss.h"

namespace zka::data {

struct LocalSgdOptions {
  std::int64_t local_epochs = 1;  // the paper trains one local epoch
  std::int64_t batch_size = 32;
  float learning_rate = 0.05f;
};

/// What local_sgd reuses from one call to the next: a model (built on first
/// use when none is lent) and the batch and loss buffers, plus the shard
/// index buffer fl::Client::train shuffles. A training thread that keeps
/// one across calls trains allocation-free in steady state; it must not be
/// shared by concurrent calls.
struct TrainScratch {
  std::unique_ptr<nn::Sequential> model;
  Batch batch;
  nn::SoftmaxCrossEntropy loss;
  std::vector<std::int64_t> indices;
};

/// Loads `global` into a model, runs options.local_epochs epochs of
/// mini-batches of `loader` (built at options.batch_size), reshuffled from
/// `rng` before each, and writes the trained parameters into `out`. The
/// model is `lent` when given, else scratch.model, built by `factory` on
/// first use; every parameter is loaded from `global`, so its previous
/// contents never matter. A model seed is drawn from `rng` first either
/// way, so the shuffles read the same stream whichever model trains.
void local_sgd(std::span<const float> global, DataLoader& loader,
               const LocalSgdOptions& options,
               const models::ModelFactory& factory, util::Rng& rng,
               TrainScratch& scratch, std::vector<float>& out,
               nn::Sequential* lent = nullptr);

}  // namespace zka::data
