// Flattens [N, ...] to [N, features]; backward restores the input shape.
#pragma once

#include "nn/module.h"

namespace zka::nn {

class Flatten : public Module {
 public:
  const Tensor& forward(const Tensor& input) override;
  const Tensor& backward(const Tensor& grad_output) override;
  std::string name() const override { return "Flatten"; }

 private:
  tensor::Shape input_shape_;
  Tensor buf_;  // flattened output after forward, input gradient after backward
};

/// Inverse of Flatten for generators: reshapes [N, C*H*W] to [N, C, H, W].
class Unflatten : public Module {
 public:
  Unflatten(std::int64_t channels, std::int64_t height, std::int64_t width)
      : channels_(channels), height_(height), width_(width) {}
  const Tensor& forward(const Tensor& input) override;
  const Tensor& backward(const Tensor& grad_output) override;
  std::string name() const override { return "Unflatten"; }

 private:
  std::int64_t channels_;
  std::int64_t height_;
  std::int64_t width_;
  Tensor buf_;
};

}  // namespace zka::nn
