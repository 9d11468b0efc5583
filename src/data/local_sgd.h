// Local SGD from a global model (Eq. 1): the one training loop behind
// benign clients (fl::ClientRegistry::train), the label-flipping attacker
// and FLTrust's server-side reference update.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "data/batch.h"
#include "models/models.h"
#include "nn/loss.h"

namespace zka::data {

struct LocalSgdOptions {
  std::int64_t local_epochs = 1;  // the paper trains one local epoch
  std::int64_t batch_size = 32;
  float learning_rate = 0.05f;
};

/// What local_sgd reuses from one call to the next: a model, the batch and
/// loss buffers, and the index list of the rows it trains on, which it
/// shuffles in place. A training thread that keeps one across calls trains
/// allocation-free in steady state; it must not be shared by concurrent
/// calls.
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

/// Loads `global` into scratch.model, which must be built, runs
/// options.local_epochs epochs of options.batch_size-row mini-batches of
/// the `dataset` rows listed in scratch.indices, reshuffled from `rng`
/// before each and cut into batches of consecutive entries (the last may
/// be partial), and writes the trained parameters into `out`. Every
/// parameter is loaded from `global`, so the model's previous contents
/// never matter. The shuffles permute scratch.indices in place. They come
/// after one draw of `rng` that nothing reads: the shuffle stream, and with
/// it every pinned training result, starts after that draw.
void local_sgd(std::span<const float> global, const Dataset& dataset,
               const LocalSgdOptions& options, util::Rng& rng,
               TrainScratch& scratch, std::vector<float>& out);

}  // namespace zka::data
