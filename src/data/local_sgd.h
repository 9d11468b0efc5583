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
/// use) and the batch and loss buffers, plus the shard index buffer
/// fl::Client::train shuffles. A training thread that keeps one across
/// calls trains allocation-free in steady state; it must not be shared by
/// concurrent calls.
struct TrainScratch {
  std::unique_ptr<nn::Sequential> model;
  Batch batch;
  nn::SoftmaxCrossEntropy loss;
  std::vector<std::int64_t> indices;
};

/// One TrainScratch per participant of the global thread pool, indexed by
/// util::ThreadPool::participant_index(): the models a simulation trains
/// its clients, crafts its attack and evaluates on. parallel_for bodies
/// that run concurrently have different indices, so each may use its own
/// participant's slot freely. Every slot's model is built by `factory` on
/// first use, and its parameters are whatever its last user left.
class ReplicaSet {
 public:
  explicit ReplicaSet(models::ModelFactory factory);
  ReplicaSet(const ReplicaSet&) = delete;
  ReplicaSet& operator=(const ReplicaSet&) = delete;

  /// Number of slots: the global pool's size + 1.
  std::size_t size() const noexcept { return slots_.size(); }

  /// The slot of the calling thread's participant.
  TrainScratch& mine();
  /// Participant `p`'s slot, its model built.
  TrainScratch& slot(std::size_t p);
  /// Participant `p`'s model, built on first use.
  nn::Sequential& model(std::size_t p) { return *slot(p).model; }

  /// Loads `params` into every participant's model.
  void load(std::span<const float> params);

 private:
  models::ModelFactory factory_;
  std::vector<TrainScratch> slots_;
};

/// Loads `global` into a model, runs options.local_epochs epochs of
/// mini-batches of `loader` (built at options.batch_size), reshuffled from
/// `rng` before each, and writes the trained parameters into `out`. The
/// model is scratch.model, built by `factory` from a seed drawn from `rng`
/// when the scratch has none; every parameter is loaded from `global`, so
/// its previous contents never matter. The seed is drawn either way, so
/// the shuffles read the same stream whichever model trains.
void local_sgd(std::span<const float> global, DataLoader& loader,
               const LocalSgdOptions& options,
               const models::ModelFactory& factory, util::Rng& rng,
               TrainScratch& scratch, std::vector<float>& out);

}  // namespace zka::data
