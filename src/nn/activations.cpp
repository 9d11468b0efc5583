#include "nn/activations.h"

#include <cmath>

#include "util/check.h"

namespace zka::nn {

namespace {

// Writes f(x) for every input element into `out`.
template <typename F>
const Tensor& map_forward(const Tensor& input, Tensor& out, F f) {
  out.resize(input.shape());
  const float* x = input.raw();
  float* y = out.raw();
  for (std::int64_t i = 0; i < input.numel(); ++i) y[i] = f(x[i]);
  return out;
}

// Overwrites the cached output y with g(y, dy), the input gradient.
template <typename G>
const Tensor& map_backward(Tensor& buf, const Tensor& grad, const char* layer,
                           G g) {
  ZKA_CHECK(buf.same_shape(grad), "%s backward: grad shape %s vs %s", layer,
            tensor::shape_to_string(grad.shape()).c_str(),
            tensor::shape_to_string(buf.shape()).c_str());
  const float* dy = grad.raw();
  float* y = buf.raw();
  for (std::int64_t i = 0; i < buf.numel(); ++i) y[i] = g(y[i], dy[i]);
  return buf;
}

}  // namespace

const Tensor& ReLU::forward(const Tensor& input) {
  return map_forward(input, buf_, [](float x) { return x > 0.0f ? x : 0.0f; });
}

const Tensor& ReLU::backward(const Tensor& grad_output) {
  return map_backward(buf_, grad_output, "ReLU", [](float y, float dy) {
    return y > 0.0f ? dy : 0.0f;
  });
}

const Tensor& Tanh::forward(const Tensor& input) {
  return map_forward(input, buf_, [](float x) { return std::tanh(x); });
}

const Tensor& Tanh::backward(const Tensor& grad_output) {
  return map_backward(buf_, grad_output, "Tanh", [](float y, float dy) {
    return dy * (1.0f - y * y);
  });
}

}  // namespace zka::nn
