// Robust aggregation (defense) interface.
//
// Updates are flat model-parameter vectors (the FL wire format from
// nn::get_flat_params). Selection-style defenses (mKrum, Bulyan, FoolsGold)
// also report *which* updates contributed, which is what the paper's DPR
// metric (Eq. 5) is computed from; statistic defenses (Median, TRmean)
// blend coordinates from all updates and report no selection.
//
// Aggregators consume updates as read-only views (UpdateView). The server
// round loop hands out spans over client buffers without copying — a
// crafted malicious update submitted by many sybils is one buffer viewed
// many times, not many deep copies. Owning-vector callers use the
// convenience overload, which builds the view list and forwards.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "defense/sanitize.h"

namespace zka::defense {

using Update = std::vector<float>;

/// Non-owning read-only view of one client's flat update. The pointee must
/// outlive the call that receives it; a rule that buffers its stream holds
/// views until finish_stream() (see the ingestion protocol below).
using UpdateView = std::span<const float>;

struct AggregationResult {
  Update model;
  /// Indices (into the submitted update list) of updates that were selected
  /// for aggregation. Empty for statistic defenses that use all updates.
  std::vector<std::size_t> selected;
};

class Aggregator {
 public:
  virtual ~Aggregator() = default;

  // The client-facing entry points (aggregate and the stream protocol
  // below) are non-virtual template methods: they run the ingress
  // sanitize layer (defense/sanitize.h — finite-check every update row,
  // clamp outlier reported weights) and then dispatch to the protected
  // do_* hooks the rules override. Rules therefore consume sanitized
  // input by construction; set_sanitize({.enabled = false}) restores the
  // paper-faithful undefended server bitwise.

  /// Aggregates the round's updates; weights[i] is the sample count of
  /// client i (used by weighted FedAvg; robust rules may ignore it).
  /// Requires at least one update; all updates must have equal size.
  /// An exact folding rule is driven through its own stream (protocol
  /// below); every other rule runs do_aggregate on the admitted rows.
  AggregationResult aggregate(std::span<const UpdateView> updates,
                              std::span<const std::int64_t> weights);

  /// Convenience overload for owning vectors: builds the view list and
  /// forwards to the span version.
  AggregationResult aggregate(const std::vector<Update>& updates,
                              const std::vector<std::int64_t>& weights);

  /// Replaces the ingress sanitize configuration (takes effect from the
  /// next entry-point call; never mid-stream).
  void set_sanitize(const sanitize::Options& options) {
    ingress_ = sanitize::Ingress(options);
  }

  /// The ingress layer, for tests and telemetry (zeroed/clamped counts).
  const sanitize::Ingress& ingress() const noexcept { return ingress_; }

  /// Called by the server before collecting a round's updates, with the
  /// global model it just broadcast. Most rules ignore it; defenses that
  /// need server-side context (e.g. FLTrust trains a reference update on
  /// its root dataset) override it.
  virtual void begin_round(std::span<const float> global_model,
                           std::int64_t round) {
    (void)global_model;
    (void)round;
  }

  /// True if the defense *selects* updates (DPR is only defined then).
  virtual bool selects_clients() const noexcept = 0;

  virtual std::string name() const = 0;

  // ── Ingestion protocol ───────────────────────────────────────────────
  //
  // The server hands every round to the rule as one stream:
  //
  //   begin_stream(dim, weights);                      // all weights first
  //   stream_update(u_0); ... stream_update(u_{n-1});  // submission order
  //   for i in stream_replay_request():                // ascending
  //     stream_replay(i, u_i);                         // same bits as pass 1
  //   finish_stream();
  //
  // A rule that folds updates one at a time overrides supports_streaming()
  // and the do_* hooks; the server may then free each update once its
  // stream_update returns, holding one training wave instead of n. The
  // replay pass is the sketched selection rules' bounded second look
  // (defense/sketch.h): training is a pure function of (global model,
  // seed), so the server re-derives a replayed update instead of storing
  // it.
  //
  // A rule that cannot fold overrides only do_aggregate, and the base
  // hooks buffer its round: do_begin_stream keeps the admitted weights,
  // do_stream_update keeps the caller's view, and finish_stream() admits
  // the held rows as one matrix and calls do_aggregate — the call
  // aggregate() makes. Its round is one wave: every view passed to
  // stream_update must stay valid until finish_stream() returns.
  //
  // Contract: whenever streaming_exact(), finish_stream() returns a model
  // bitwise-identical to aggregate() on the same updates in the same
  // order, by construction: a buffering rule's stream ends in the same
  // do_aggregate call, and aggregate() on an exact folding rule (FedAvg,
  // the sketched one-shot Krum family) is a driver of that rule's stream.
  // The tree median/trimmed-mean under a memory budget (statistic.h)
  // folds through a documented approximation: false from
  // streaming_exact(), so aggregate() keeps its exact batch rule; the
  // stream is bitwise deterministic for a fixed arrival order and budget,
  // and equal to the batch rule when one wave holds the round.

  /// True when this rule folds each update as it arrives, so the server
  /// may free an update once its stream_update returns. False (the
  /// default) for rules that buffer the round.
  virtual bool supports_streaming() const noexcept { return false; }

  /// True when finish_stream() is guaranteed bitwise-identical to
  /// aggregate() on the same updates in the same order; a folding rule
  /// that is exact has aggregate() drive its stream. Approximate
  /// streaming rules (tree median/trmean) override to false, keep an
  /// exact batch rule for aggregate(), and document their agreement
  /// bounds.
  virtual bool streaming_exact() const noexcept { return true; }

  /// Starts a round: `dim` coordinates per update, one weight per
  /// forthcoming stream_update call, in call order. Throws
  /// std::invalid_argument, before the rule sees the round, for what
  /// validate_updates rejects: dim 0, no weights, or a negative weight.
  void begin_stream(std::size_t dim, std::span<const std::int64_t> weights);

  /// Submits the next update (submission order). A folding rule admits
  /// and consumes the row now, so the view need only stay valid for the
  /// call; a buffering rule holds the view, which must then stay valid
  /// until finish_stream() returns. Throws std::invalid_argument for a
  /// row whose length is not begin_stream's dim.
  void stream_update(UpdateView update);

  /// After the last stream_update: the ascending index set (into the
  /// streamed order) this rule needs replayed at full dimension before
  /// finish_stream(). Default: none. The span stays valid until
  /// finish_stream() returns.
  virtual std::span<const std::size_t> stream_replay_request() { return {}; }

  /// Replays update `index` (must be the next unserved entry of
  /// stream_replay_request(), ascending) with exactly the bits it had in
  /// the first pass — sanitization is deterministic, so re-admitting the
  /// original bytes reproduces the pass-1 row exactly. Throws for rules
  /// that never request replays, and for a row whose length is not
  /// begin_stream's dim.
  void stream_replay(std::size_t index, UpdateView update);

  /// Finishes the round and returns the aggregate, exactly as aggregate()
  /// would have when streaming_exact(). Requires one stream_update per
  /// begin_stream weight, plus every requested replay. The default runs
  /// do_aggregate on the buffered round.
  virtual AggregationResult finish_stream();

 protected:
  // Per-rule implementations, called with sanitized input. The stream
  // hooks get shapes the entry points already checked (dim > 0, weights
  // present and non-negative, every row dim long); do_aggregate must
  // establish its own (validate_updates): sanitization normalizes values,
  // it does not prove shapes.
  // do_aggregate is the batch rule of a rule that cannot fold exactly;
  // the default throws, so an exact folding rule defines only its stream.
  virtual AggregationResult do_aggregate(std::span<const UpdateView> updates,
                                         std::span<const std::int64_t> weights);
  // Defaults: buffer the round (protocol note above); replays throw.
  virtual void do_begin_stream(std::size_t dim,
                               std::span<const std::int64_t> weights);
  virtual void do_stream_update(UpdateView update);
  virtual void do_stream_replay(std::size_t index, UpdateView update);

 private:
  sanitize::Ingress ingress_;
  // The open stream's update dimension, checked on every streamed row.
  std::size_t stream_dim_ = 0;
  // The buffered round of a rule that cannot fold.
  std::vector<UpdateView> held_;
  std::vector<std::int64_t> held_weights_;
};

/// View list over a vector of owning updates (no copies).
std::vector<UpdateView> as_views(const std::vector<Update>& updates);

/// Throws std::invalid_argument unless updates is non-empty and rectangular
/// and weights (when non-empty) match in count and are non-negative.
/// Value-level hygiene (finiteness) is the ingress layer's job
/// (defense/sanitize.h), not a shape contract — switching sanitization off
/// must reproduce the undefended server, not crash it.
void validate_updates(std::span<const UpdateView> updates,
                      std::span<const std::int64_t> weights);

/// Knobs of the named constructor below; the defaults select the exact,
/// unbudgeted rules with f = 2.
struct AggregatorOptions {
  /// The defense's assumed attacker bound f.
  std::size_t num_byzantine = 2;
  /// JL sketch dimension k for the distance-based rules (krum, mkrum,
  /// bulyan): rank on O(k) sketches, re-check the selection boundary
  /// exactly at full dimension (defense/sketch.h). 0 = exact path.
  std::size_t sketch_dim = 0;
  /// Seed of the sketch sign pattern.
  std::uint64_t sketch_seed = 0x5ce7c41ULL;
  /// Per-side width of the exact re-check band around the selection cut.
  std::size_t recheck_band = 16;
  /// Server memory budget forwarded to budget-aware streaming rules
  /// (median/trmean size their tree-aggregation wave from it). 0 = keep
  /// the batch path.
  std::size_t memory_budget_bytes = 0;
};

/// Named construction for benches/CLIs: fedavg, median, trmean, mkrum,
/// bulyan, foolsgold, normclip. `options.num_byzantine` is the defense's
/// assumed attacker bound f.
std::unique_ptr<Aggregator> make_aggregator(const std::string& name,
                                            const AggregatorOptions& options);

}  // namespace zka::defense
