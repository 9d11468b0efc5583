#include "nn/module.h"

#include <algorithm>

#include "util/check.h"

namespace zka::nn {

std::int64_t num_params(Module& module) {
  std::int64_t n = 0;
  for (const Parameter* p : module.parameters()) n += p->value.numel();
  return n;
}

std::vector<float> get_flat_params(Module& module) {
  std::vector<float> flat;
  get_flat_params(module, flat);
  return flat;
}

void get_flat_params(Module& module, std::vector<float>& out) {
  out.resize(static_cast<std::size_t>(num_params(module)));
  auto dst = out.begin();
  for (const Parameter* p : module.parameters()) {
    dst = std::copy(p->value.data().begin(), p->value.data().end(), dst);
  }
}

void set_flat_params(Module& module, std::span<const float> flat) {
  std::size_t offset = 0;
  for (Parameter* p : module.parameters()) {
    const std::size_t n = static_cast<std::size_t>(p->value.numel());
    ZKA_CHECK(offset + n <= flat.size(),
              "set_flat_params: vector of %zu too short at offset %zu",
              flat.size(), offset);
    std::copy(flat.begin() + static_cast<std::ptrdiff_t>(offset),
              flat.begin() + static_cast<std::ptrdiff_t>(offset + n),
              p->value.data().begin());
    offset += n;
  }
  ZKA_CHECK(offset == flat.size(),
            "set_flat_params: vector too long (%zu vs %zu params)",
            flat.size(), offset);
}

std::vector<float> get_flat_grads(Module& module) {
  std::vector<float> flat;
  flat.reserve(static_cast<std::size_t>(num_params(module)));
  for (const Parameter* p : module.parameters()) {
    const auto data = p->grad.data();
    flat.insert(flat.end(), data.begin(), data.end());
  }
  return flat;
}

void add_to_flat_grads(Module& module, std::span<const float> delta) {
  std::size_t offset = 0;
  for (Parameter* p : module.parameters()) {
    const std::size_t n = static_cast<std::size_t>(p->grad.numel());
    ZKA_CHECK(offset + n <= delta.size(),
              "add_to_flat_grads: vector of %zu too short at offset %zu",
              delta.size(), offset);
    auto grad = p->grad.data();
    for (std::size_t i = 0; i < n; ++i) grad[i] += delta[offset + i];
    offset += n;
  }
  ZKA_CHECK(offset == delta.size(),
            "add_to_flat_grads: vector too long (%zu vs %zu params)",
            delta.size(), offset);
}

}  // namespace zka::nn
