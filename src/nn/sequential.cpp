#include "nn/sequential.h"

namespace zka::nn {

Module& Sequential::add(std::unique_ptr<Module> layer) {
  const auto params = layer->parameters();
  params_.insert(params_.end(), params.begin(), params.end());
  layers_.push_back(std::move(layer));
  return *layers_.back();
}

void Sequential::set_frozen(bool frozen) {
  Module::set_frozen(frozen);
  for (const auto& layer : layers_) {
    if (frozen) {
      layer->freeze();
    } else {
      layer->thaw();
    }
  }
}

const Tensor& Sequential::forward(const Tensor& input) {
  const Tensor* x = &input;
  for (const auto& layer : layers_) x = &layer->forward(*x);
  return *x;
}

const Tensor& Sequential::backward(const Tensor& grad_output) {
  const Tensor* g = &grad_output;
  for (auto it = layers_.rbegin(); it != layers_.rend(); ++it) {
    g = &(*it)->backward(*g);
  }
  return *g;
}

}  // namespace zka::nn
