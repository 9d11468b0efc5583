// Benign FL client: local SGD from the received global model (Eq. 1).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "data/dataset.h"
#include "data/local_sgd.h"
#include "data/partition.h"
#include "models/models.h"

namespace zka::fl {

class Client {
 public:
  /// A client training on the samples `indices` of `dataset`. It borrows
  /// `dataset`, `indices` and `factory`, which must outlive it.
  Client(std::int64_t id, const data::Dataset& dataset,
         std::span<const std::int64_t> indices,
         const models::ModelFactory& factory, data::LocalSgdOptions options);
  /// A client whose shard `spec` computes each time it trains; it borrows
  /// `spec` as well.
  Client(std::int64_t id, const data::Dataset& dataset,
         const data::HashedShardSpec& spec, const models::ModelFactory& factory,
         data::LocalSgdOptions options);

  /// Trains a local model initialized from `global` and returns its flat
  /// parameters. Deterministic in (global, seed); safe to call from
  /// multiple clients concurrently.
  std::vector<float> train(std::span<const float> global,
                           std::uint64_t seed) const;
  /// Same result, written into `out`, training on `scratch`'s replica. The
  /// shard is written once into scratch.indices, so a warm scratch makes
  /// the whole call allocation-free.
  void train(std::span<const float> global, std::uint64_t seed,
             data::TrainScratch& scratch, std::vector<float>& out) const;

  std::int64_t id() const noexcept { return id_; }
  std::int64_t num_samples() const noexcept;
  /// The shard's sample indices, into `out`, in the order every train()
  /// starts shuffling from.
  void shard(std::vector<std::int64_t>& out) const;

 private:
  std::int64_t id_;
  const data::Dataset* dataset_;
  std::span<const std::int64_t> indices_;  // unused when spec_ is set
  const data::HashedShardSpec* spec_ = nullptr;
  const models::ModelFactory* factory_;
  data::LocalSgdOptions options_;
};

}  // namespace zka::fl
