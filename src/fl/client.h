// Benign FL client: local SGD from the received global model (Eq. 1).
#pragma once

#include <cstdint>
#include <vector>

#include "data/dataset.h"
#include "data/local_sgd.h"
#include "models/models.h"

namespace zka::fl {

class Client {
 public:
  /// `dataset` must outlive the client; `indices` select its local shard.
  Client(std::int64_t id, const data::Dataset& dataset,
         std::vector<std::int64_t> indices, models::ModelFactory factory,
         data::LocalSgdOptions options);

  /// Trains a local model initialized from `global` and returns its flat
  /// parameters. Deterministic in (global, seed); safe to call from
  /// multiple clients concurrently.
  std::vector<float> train(std::span<const float> global,
                           std::uint64_t seed) const;
  /// Same result, written into `out`, training on `scratch`'s replica.
  void train(std::span<const float> global, std::uint64_t seed,
             data::TrainScratch& scratch, std::vector<float>& out) const;

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
  data::LocalSgdOptions options_;
};

}  // namespace zka::fl
