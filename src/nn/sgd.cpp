#include "nn/sgd.h"

#include "util/check.h"

namespace zka::nn {

Sgd::Sgd(Module& module, float learning_rate)
    : params_(module.parameters()), learning_rate_(learning_rate) {}

void Sgd::step() {
  for (std::size_t k = 0; k < params_.size(); ++k) {
    Parameter& p = *params_[k];
    auto value = p.value.data();
    auto grad = p.grad.data();
    ZKA_DCHECK(value.size() == grad.size(),
               "Sgd: param %zu has %zu values but %zu grads", k, value.size(),
               grad.size());
    for (std::size_t i = 0; i < value.size(); ++i) {
      value[i] -= learning_rate_ * grad[i];
    }
  }
}

void Sgd::zero_grad() {
  for (Parameter* p : params_) p->grad.fill(0.0f);
}

double sgd_step(Module& model, Sgd& optimizer, SoftmaxCrossEntropy& loss,
                const Tensor& images, std::span<const std::int64_t> labels) {
  optimizer.zero_grad();
  const double value = loss.forward(model.forward(images), labels);
  model.backward(loss.backward());
  optimizer.step();
  return value;
}

}  // namespace zka::nn
