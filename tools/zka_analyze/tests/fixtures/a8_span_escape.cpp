// zka-fixture-path: src/fixture/a8_span_escape.cpp
// A8 positive + negative: views that outlive the buffer backing them vs
// views into storage that survives the call.
#include "fixture_support.h"

const float* bad_pointer_into_local(std::size_t n) {
  std::vector<float> buf(n, 0.0f);
  return buf.data();  // expect: A8
}

class BadRetainer : public zka::defense::Aggregator {
 public:
  zka::defense::AggregationResult aggregate(
      std::span<const zka::defense::UpdateView> updates,
      std::span<const std::int64_t> weights) override {
    zka::defense::validate_updates(updates, weights);
    return {};
  }
  void stream_update(zka::defense::UpdateView update) override {
    view_ = update;  // expect: A8
  }

 private:
  zka::defense::UpdateView view_;
};

class BadHolder : public zka::defense::Aggregator {
 public:
  zka::defense::AggregationResult aggregate(
      std::span<const zka::defense::UpdateView> updates,
      std::span<const std::int64_t> weights) override {
    zka::defense::validate_updates(updates, weights);
    return {};
  }
  void stream_update(zka::defense::UpdateView update) override {
    held_.push_back(update);  // expect: A8
  }

 private:
  std::vector<zka::defense::UpdateView> held_;
};

const float* good_pointer_into_static(std::size_t n) {
  static std::vector<float> table(16, 0.0f);
  (void)n;
  return table.data();  // static storage survives the call: fine
}

class GoodCopier : public zka::defense::Aggregator {
 public:
  zka::defense::AggregationResult aggregate(
      std::span<const zka::defense::UpdateView> updates,
      std::span<const std::int64_t> weights) override {
    zka::defense::validate_updates(updates, weights);
    return {};
  }
  void stream_update(zka::defense::UpdateView update) override {
    own_.assign(update.begin(), update.end());  // owning copy: fine
  }

 private:
  std::vector<float> own_;
};
