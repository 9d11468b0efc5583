#include "nn/linear.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "tensor/ops.h"
#include "util/check.h"
#include "util/rng.h"

namespace zka::nn {

Linear::Linear(std::int64_t in_features, std::int64_t out_features,
               util::Rng& rng)
    : in_features_(in_features),
      out_features_(out_features),
      weight_(Tensor({out_features, in_features})),
      bias_(Tensor({out_features})) {
  const float bound =
      std::sqrt(6.0f / static_cast<float>(in_features));  // He-uniform.
  for (auto& w : weight_.value.data()) {
    w = static_cast<float>(rng.uniform(-bound, bound));
  }
}

const Tensor& Linear::forward(const Tensor& input) {
  ZKA_CHECK(input.rank() == 2 && input.dim(1) == in_features_,
            "Linear: expected [N, %lld], got %s",
            static_cast<long long>(in_features_),
            tensor::shape_to_string(input.shape()).c_str());
  ZKA_CHECK(&input != &act_, "Linear: input aliases the layer's own output");
  input_ = &input;
  const std::int64_t n = input.dim(0);
  // Prefill each output row with the bias and let the GEMM accumulate onto
  // it (beta = 1) — saves a second pass over the output.
  act_.resize({n, out_features_});
  const auto bias = bias_.value.data();
  for (std::int64_t i = 0; i < n; ++i) {
    const auto row =
        act_.data().subspan(static_cast<std::size_t>(i * out_features_),
                           static_cast<std::size_t>(out_features_));
    std::copy(bias.begin(), bias.end(), row.begin());
  }
  tensor::gemm_a_bt(n, out_features_, in_features_, 1.0f, input.raw(),
                    weight_.value.raw(), 1.0f, act_.raw());
  return act_;
}

const Tensor& Linear::backward(const Tensor& grad_output) {
  ZKA_CHECK(input_ != nullptr, "Linear::backward before forward");
  ZKA_CHECK(&grad_output != &act_, "Linear: grad aliases the layer's output");
  const Tensor& input = *input_;
  const std::int64_t n = input.dim(0);
  ZKA_CHECK(grad_output.has_shape({n, out_features_}),
            "Linear backward: grad %s, want [%lld, %lld]",
            tensor::shape_to_string(grad_output.shape()).c_str(),
            static_cast<long long>(n), static_cast<long long>(out_features_));
  if (!frozen()) {
    // dW += dYᵀ @ X ; dY is [N, out], X is [N, in].
    tensor::gemm_at_b(out_features_, in_features_, n, 1.0f, grad_output.raw(),
                      input.raw(), 1.0f, weight_.grad.raw());
    // db += column sums of dY.
    for (std::int64_t i = 0; i < n; ++i) {
      const auto row = grad_output.data().subspan(
          static_cast<std::size_t>(i * out_features_),
          static_cast<std::size_t>(out_features_));
      for (std::int64_t j = 0; j < out_features_; ++j) bias_.grad[j] += row[j];
    }
  }
  // dX = dY @ W.
  act_.resize({n, in_features_});
  tensor::gemm(n, in_features_, out_features_, 1.0f, grad_output.raw(),
               weight_.value.raw(), 0.0f, act_.raw());
  return act_;
}

}  // namespace zka::nn
