// FLTrust (Cao et al., NDSS 2021) — extension defense.
//
// The server holds a small clean "root" dataset. Each round it trains its
// own reference update from the broadcast global model; every client
// update is then scored by the ReLU-clipped cosine similarity between its
// delta and the server delta (trust score), rescaled to the server delta's
// norm, and averaged with trust-score weights. Clients with nonpositive
// similarity are effectively dropped, which is what DPR measures here.
#pragma once

#include "data/dataset.h"
#include "data/local_sgd.h"
#include "defense/aggregator.h"
#include "models/models.h"
#include "util/rng.h"

namespace zka::defense {

class FlTrust : public Aggregator {
 public:
  /// `root` is the server's clean dataset (typically ~100 samples);
  /// `options` should match the clients' training configuration. The
  /// server's one model is built here by `factory` and kept across rounds:
  /// an aggregator has no context to borrow a model through.
  FlTrust(data::Dataset root, const models::ModelFactory& factory,
          data::LocalSgdOptions options, std::uint64_t seed);

  void begin_round(std::span<const float> global_model,
                   std::int64_t round) override;
  AggregationResult do_aggregate(std::span<const UpdateView> updates,
                              std::span<const std::int64_t> weights) override;
  bool selects_clients() const noexcept override { return true; }
  std::string name() const override { return "FLTrust"; }

  /// Trust scores of the last aggregate() (for tests).
  const std::vector<double>& last_trust_scores() const noexcept {
    return last_scores_;
  }

 private:
  data::Dataset root_;
  data::LocalSgdOptions options_;
  util::Rng rng_;
  data::TrainScratch scratch_;  // the server's model, kept across rounds
  Update global_;         // model broadcast this round
  Update server_update_;  // reference update trained on the root data
  std::vector<double> last_scores_;
};

}  // namespace zka::defense
