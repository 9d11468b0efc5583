#include "nn/sgd.h"

#include "util/check.h"

namespace zka::nn {

Sgd::Sgd(std::vector<Parameter*> params, SgdOptions options)
    : owned_(std::move(params)), params_(owned_), options_(options) {
  init_velocity();
}

Sgd::Sgd(Module& module, SgdOptions options)
    : params_(module.parameters()), options_(options) {
  init_velocity();
}

void Sgd::init_velocity() {
  if (options_.momentum != 0.0f) {
    velocity_.reserve(params_.size());
    for (const Parameter* p : params_) {
      velocity_.emplace_back(p->value.shape());
    }
  }
}

void Sgd::step() {
  for (std::size_t k = 0; k < params_.size(); ++k) {
    Parameter& p = *params_[k];
    auto value = p.value.data();
    auto grad = p.grad.data();
    ZKA_DCHECK(value.size() == grad.size(),
               "Sgd: param %zu has %zu values but %zu grads", k, value.size(),
               grad.size());
    for (std::size_t i = 0; i < value.size(); ++i) {
      float g = grad[i];
      if (options_.weight_decay != 0.0f) {
        g += options_.weight_decay * value[i];
      }
      if (options_.momentum != 0.0f) {
        auto v = velocity_[k].data();
        v[i] = options_.momentum * v[i] + g;
        g = v[i];
      }
      value[i] -= options_.learning_rate * g;
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
