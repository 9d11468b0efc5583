// Ordered container of modules; forward chains them, backward reverses.
#pragma once

#include <memory>

#include "nn/module.h"

namespace zka::nn {

class Sequential : public Module {
 public:
  Sequential() = default;

  /// Appends a layer and returns a reference for optional further wiring.
  /// The layer's parameters are collected here: a nested Sequential must
  /// be complete when it is added.
  Module& add(std::unique_ptr<Module> layer);

  template <typename Layer, typename... Args>
  Layer& emplace(Args&&... args) {
    auto layer = std::make_unique<Layer>(std::forward<Args>(args)...);
    Layer& ref = *layer;
    add(std::move(layer));
    return ref;
  }

  /// Chains the layers by reference: each layer reads the previous one's
  /// buffer, and the result is the last layer's (the input itself when
  /// there are no layers).
  const Tensor& forward(const Tensor& input) override;
  const Tensor& backward(const Tensor& grad_output) override;
  std::span<Parameter* const> parameters() override { return params_; }
  std::string name() const override { return "Sequential"; }

  std::size_t size() const noexcept { return layers_.size(); }
  Module& layer(std::size_t i) { return *layers_.at(i); }

 protected:
  /// Freezes or thaws itself and every layer it holds.
  void set_frozen(bool frozen) override;

 private:
  std::vector<std::unique_ptr<Module>> layers_;
  std::vector<Parameter*> params_;  // every layer's, in layer order
};

}  // namespace zka::nn
