// Benign FL client: local SGD from the received global model (Eq. 1).
#pragma once

#include <cstdint>
#include <vector>

#include "data/dataset.h"
#include "data/loader.h"
#include "models/models.h"
#include "nn/loss.h"

namespace zka::fl {

struct ClientOptions {
  std::int64_t local_epochs = 1;  // the paper trains one local epoch
  std::int64_t batch_size = 32;
  float learning_rate = 0.05f;
};

/// What Client::train reuses from one call to the next: a model replica
/// (built on first use) and the batch and loss buffers. A training thread
/// that keeps one across clients and rounds trains allocation-free in
/// steady state; it must not be shared by concurrent calls.
struct TrainScratch {
  std::unique_ptr<nn::Sequential> model;
  data::Batch batch;
  nn::SoftmaxCrossEntropy loss;
};

class Client {
 public:
  /// `dataset` must outlive the client; `indices` select its local shard.
  Client(std::int64_t id, const data::Dataset& dataset,
         std::vector<std::int64_t> indices, models::ModelFactory factory,
         ClientOptions options);

  /// Trains a local model initialized from `global` and returns its flat
  /// parameters. Deterministic in (global, seed); safe to call from
  /// multiple clients concurrently.
  std::vector<float> train(std::span<const float> global,
                           std::uint64_t seed) const;
  /// Same result, written into `out`, training on `scratch`'s replica.
  /// Every parameter is loaded from `global` first, so the replica's
  /// previous contents never matter.
  void train(std::span<const float> global, std::uint64_t seed,
             TrainScratch& scratch, std::vector<float>& out) const;

  std::int64_t id() const noexcept { return id_; }
  std::int64_t num_samples() const noexcept {
    return static_cast<std::int64_t>(indices_.size());
  }
  const std::vector<std::int64_t>& indices() const noexcept {
    return indices_;
  }

 private:
  std::int64_t id_;
  const data::Dataset* dataset_;
  std::vector<std::int64_t> indices_;
  models::ModelFactory factory_;
  ClientOptions options_;
};

}  // namespace zka::fl
