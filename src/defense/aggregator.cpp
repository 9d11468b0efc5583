#include "defense/aggregator.h"

#include "util/check.h"

namespace zka::defense {

AggregationResult Aggregator::aggregate(
    std::span<const UpdateView> updates,
    std::span<const std::int64_t> weights) {
  ZKA_CHECK(weights.empty() || weights.size() == updates.size(),
            "aggregate: %zu weights for %zu updates", weights.size(),
            updates.size());
  if (!supports_streaming() || !streaming_exact()) {
    return do_aggregate(ingress_.admit_updates(updates),
                        ingress_.admit_weights(weights));
  }
  // A folding rule has one implementation, its stream: drive it in
  // submission order. Shapes are proven first so a bad batch throws
  // before the rule opens a stream it could not finish.
  validate_updates(updates, weights);
  begin_stream(updates.front().size(), weights);
  for (const UpdateView u : updates) stream_update(u);
  for (const std::size_t i : stream_replay_request()) {
    stream_replay(i, updates[i]);
  }
  return finish_stream();
}

// Pure delegation: the span overload sanitizes, validates and dispatches.
AggregationResult Aggregator::aggregate(
    const std::vector<Update>& updates,
    const std::vector<std::int64_t>& weights) {
  const std::vector<UpdateView> views = as_views(updates);
  return aggregate(std::span<const UpdateView>(views),
                   std::span<const std::int64_t>(weights));
}

void Aggregator::begin_stream(std::size_t dim,
                              std::span<const std::int64_t> weights) {
  do_begin_stream(dim, ingress_.admit_weights(weights));
}

void Aggregator::stream_update(UpdateView update) {
  // A buffered row is admitted with its matrix, as aggregate() would.
  do_stream_update(supports_streaming() ? ingress_.admit_update(update)
                                        : update);
}

void Aggregator::stream_replay(std::size_t index, UpdateView update) {
  // Same admission as pass 1: sanitization is deterministic, so the rule
  // sees bit-identical rows across the two passes.
  do_stream_replay(index, ingress_.admit_update(update));
}

void Aggregator::do_begin_stream(std::size_t dim,
                                 std::span<const std::int64_t> weights) {
  (void)dim;
  held_.clear();
  held_.reserve(weights.size());
  held_weights_.assign(weights.begin(), weights.end());
}

void Aggregator::do_stream_update(UpdateView update) {
  // Views live until finish_stream (aggregator.h)
  held_.push_back(update);
}

AggregationResult Aggregator::do_aggregate(
    std::span<const UpdateView> updates,
    std::span<const std::int64_t> weights) {
  (void)updates;
  (void)weights;
  ZKA_CHECK(false, "%s folds its stream and has no batch rule", name().c_str());
  return {};
}

void Aggregator::do_stream_replay(std::size_t index, UpdateView update) {
  (void)index;
  (void)update;
  ZKA_CHECK(false, "%s never requests streaming replays", name().c_str());
}

AggregationResult Aggregator::finish_stream() {
  ZKA_CHECK(held_.size() == held_weights_.size(),
            "%s: %zu of %zu announced updates streamed", name().c_str(),
            held_.size(), held_weights_.size());
  AggregationResult result =
      do_aggregate(ingress_.admit_updates(held_), held_weights_);
  held_.clear();
  return result;
}

std::vector<UpdateView> as_views(const std::vector<Update>& updates) {
  std::vector<UpdateView> views;
  views.reserve(updates.size());
  for (const Update& u : updates) views.emplace_back(u);
  return views;
}

void validate_updates(std::span<const UpdateView> updates,
                      std::span<const std::int64_t> weights) {
  ZKA_CHECK(!updates.empty(), "aggregate: no updates submitted");
  ZKA_CHECK(weights.size() == updates.size(),
            "aggregate: %zu weights for %zu updates", weights.size(),
            updates.size());
  const std::size_t dim = updates.front().size();
  ZKA_CHECK(dim > 0, "aggregate: empty update");
  for (std::size_t k = 0; k < updates.size(); ++k) {
    const UpdateView u = updates[k];
    ZKA_CHECK(u.size() == dim,
              "aggregate: update %zu has %zu coordinates, expected %zu", k,
              u.size(), dim);
  }
  // No per-value finiteness loop here: NaN/Inf hygiene is the ingress
  // layer's job (defense/sanitize.h), enforced by the Aggregator entry
  // points before any rule runs. Keeping it out of the shape contract is
  // what lets sanitize-off runs reproduce the undefended server.
  for (const std::int64_t w : weights) {
    ZKA_CHECK(w >= 0, "aggregate: negative weight %lld",
              static_cast<long long>(w));
  }
}

}  // namespace zka::defense
