// Bench-side decorators that time the attack and defense layers from the
// outside, through their public interfaces, without a line of tracing
// inside src/. Each call into the wrapped object runs under a util/prof
// scope named "e2e/<layer>.<call>", so the spans land in the same event
// rings (and the same Chrome trace) as the library's own scopes. With the
// profiler off the scopes cost one branch; bench_e2e installs the
// decorators only for its traced seeds.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <utility>

#include "attack/attack.h"
#include "defense/aggregator.h"
#include "util/prof.h"

namespace zka::bench::e2e {

class TimedAttack final : public attack::Attack {
 public:
  explicit TimedAttack(std::unique_ptr<attack::Attack> inner)
      : inner_(std::move(inner)) {}

  attack::Update craft(const attack::AttackContext& ctx) override {
    ZKA_PROF_SCOPE("e2e/attack.craft");
    return inner_->craft(ctx);
  }
  bool needs_benign_updates() const noexcept override {
    return inner_->needs_benign_updates();
  }
  std::int64_t reported_weight(
      const attack::AttackContext& ctx) const override {
    return inner_->reported_weight(ctx);
  }
  std::string name() const override { return inner_->name(); }

 private:
  std::unique_ptr<attack::Attack> inner_;
};

/// Forwards every call to the real rule. Its own ingress is switched off,
/// so the inner rule's entry points are the only sanitizer and the round
/// is bitwise what it would be without the decorator.
class TimedAggregator final : public defense::Aggregator {
 public:
  explicit TimedAggregator(std::unique_ptr<defense::Aggregator> inner)
      : inner_(std::move(inner)) {
    set_sanitize({.enabled = false});
  }

  /// Rows handed to the rule so far (aggregate rows, stream updates and
  /// replays).
  std::uint64_t updates_in() const noexcept { return updates_in_; }
  const defense::Aggregator& inner() const noexcept { return *inner_; }

  void begin_round(std::span<const float> global_model,
                   std::int64_t round) override {
    inner_->begin_round(global_model, round);
  }
  bool selects_clients() const noexcept override {
    return inner_->selects_clients();
  }
  std::string name() const override { return inner_->name(); }
  bool supports_streaming() const noexcept override {
    return inner_->supports_streaming();
  }
  bool streaming_exact() const noexcept override {
    return inner_->streaming_exact();
  }
  std::span<const std::size_t> stream_replay_request() override {
    return inner_->stream_replay_request();
  }
  defense::AggregationResult finish_stream() override {
    ZKA_PROF_SCOPE("e2e/defense.finish_stream");
    return inner_->finish_stream();
  }

 protected:
  defense::AggregationResult do_aggregate(
      std::span<const defense::UpdateView> updates,
      std::span<const std::int64_t> weights) override {
    ZKA_PROF_SCOPE("e2e/defense.aggregate");
    updates_in_ += updates.size();
    return inner_->aggregate(updates, weights);
  }
  void do_begin_stream(std::size_t dim,
                       std::span<const std::int64_t> weights) override {
    ZKA_PROF_SCOPE("e2e/defense.begin_stream");
    inner_->begin_stream(dim, weights);
  }
  void do_stream_update(defense::UpdateView update) override {
    ZKA_PROF_SCOPE("e2e/defense.stream_update");
    ++updates_in_;
    inner_->stream_update(update);
  }
  void do_stream_replay(std::size_t index,
                        defense::UpdateView update) override {
    ZKA_PROF_SCOPE("e2e/defense.stream_replay");
    ++updates_in_;
    inner_->stream_replay(index, update);
  }

 private:
  std::unique_ptr<defense::Aggregator> inner_;
  std::uint64_t updates_in_ = 0;
};

}  // namespace zka::bench::e2e
