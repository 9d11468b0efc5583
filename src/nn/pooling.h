// Max pooling over NCHW input; backward routes gradients to the argmax taps.
#pragma once

#include <cstdint>
#include <vector>

#include "nn/module.h"

namespace zka::nn {

class MaxPool2d : public Module {
 public:
  /// Square window, stride defaults to the window size (non-overlapping).
  explicit MaxPool2d(std::int64_t kernel, std::int64_t stride = 0);

  const Tensor& forward(const Tensor& input) override;
  const Tensor& backward(const Tensor& grad_output) override;
  std::string name() const override { return "MaxPool2d"; }

 private:
  std::int64_t kernel_;
  std::int64_t stride_;
  tensor::Shape input_shape_;
  // Flat input index per output element; 32 bits halve the largest buffer
  // the layer keeps (forward checks the input fits).
  std::vector<std::int32_t> argmax_;
  Tensor act_;  // output after forward, input gradient after backward
};

}  // namespace zka::nn
