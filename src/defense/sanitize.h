// Ingress sanitization: the server's trust boundary for client payloads.
//
// Everything an aggregation rule consumes arrives from clients the server
// cannot audit (the paper's premise — and MPAF-style fake clients control
// both their update bytes and their reported sample counts). This layer
// normalizes that input *once*, at ingestion, so the rules themselves can
// assume finite values and sane weights:
//
//   * admit_updates / admit_update  — every non-finite coordinate (NaN or
//     Inf, which would silently own any mean and corrupt every pairwise
//     distance) is zeroed. Clean rows pass through as views of the
//     original bytes — the common case copies nothing and is bitwise
//     exact.
//   * admit_weights — reported weights are self-declared dataset sizes; a
//     sybil claiming INT64_MAX owns the weighted mean on its own. Weights
//     above median * weight_cap_ratio are clamped to that cap. Negative
//     weights are NOT repaired here: they are a protocol violation, which
//     validate_updates (aggregate) and Aggregator::begin_stream (the
//     stream) reject.
//
// Options::enabled = false switches the layer off bitwise: every admit_*
// returns its input span untouched, reproducing the paper-faithful
// undefended server for attack studies (see NaNInjectionAttack).
//
// The Aggregator base class owns an Ingress and runs it inside the public
// aggregate/begin_stream/stream_update/stream_replay entry points, in
// front of the per-rule do_* hooks — rules cannot forget to sanitize.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace zka::defense::sanitize {

struct Options {
  /// Master switch. Off = every admit_* is a bitwise pass-through.
  bool enabled = true;
  /// Reported-weight cap as a multiple of the round's median weight.
  /// Ignored when the median is zero (no meaningful scale to clamp to).
  double weight_cap_ratio = 8.0;
};

class Ingress {
 public:
  Ingress() = default;
  explicit Ingress(const Options& options) : options_(options) {}

  const Options& options() const noexcept { return options_; }

  /// Batch form. Rows whose coordinates are all finite are returned as
  /// views of the caller's bytes; rows containing NaN/Inf are copied with
  /// the offending coordinates zeroed. The returned views stay valid
  /// until the next admit_updates call on this Ingress (the caller's
  /// buffers must outlive the aggregation, as for aggregate() itself).
  std::span<const std::span<const float>> admit_updates(
      std::span<const std::span<const float>> updates);

  /// Streaming single-row form; same zeroing contract, same lifetime
  /// (valid until the next admit_update call).
  std::span<const float> admit_update(std::span<const float> update);

  /// Clamps weights above median * weight_cap_ratio down to the cap.
  /// All-clean weight lists pass through as the caller's span.
  std::span<const std::int64_t> admit_weights(
      std::span<const std::int64_t> weights);

  /// Non-finite coordinates zeroed across the lifetime of this Ingress.
  std::size_t zeroed_values() const noexcept { return zeroed_; }
  /// Weights clamped across the lifetime of this Ingress.
  std::size_t clamped_weights() const noexcept { return clamped_; }

 private:
  Options options_;
  // Scratch for the (rare) dirty rows; reused across rounds so the clean
  // path and steady state allocate nothing.
  std::vector<std::vector<float>> row_scratch_;
  std::vector<std::span<const float>> view_scratch_;
  std::vector<float> stream_scratch_;
  std::vector<std::int64_t> weight_scratch_;
  std::vector<std::int64_t> median_scratch_;
  std::size_t zeroed_ = 0;
  std::size_t clamped_ = 0;
};

}  // namespace zka::defense::sanitize
