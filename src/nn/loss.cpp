#include "nn/loss.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"

namespace zka::nn {

Tensor softmax_rows(const Tensor& logits) {
  Tensor probs;
  softmax_rows(logits, probs);
  return probs;
}

void softmax_rows(const Tensor& logits, Tensor& probs) {
  ZKA_CHECK(logits.rank() == 2, "softmax_rows requires rank-2 logits, got %s",
            tensor::shape_to_string(logits.shape()).c_str());
  const std::int64_t n = logits.dim(0);
  const std::int64_t l = logits.dim(1);
  probs.resize(logits.shape());
  for (std::int64_t i = 0; i < n; ++i) {
    const auto in = logits.data().subspan(static_cast<std::size_t>(i * l),
                                          static_cast<std::size_t>(l));
    const auto out = probs.data().subspan(static_cast<std::size_t>(i * l),
                                          static_cast<std::size_t>(l));
    const float hi = *std::max_element(in.begin(), in.end());
    double sum = 0.0;
    for (std::int64_t j = 0; j < l; ++j) {
      out[j] = std::exp(in[j] - hi);
      sum += static_cast<double>(out[j]);
    }
    const float inv = static_cast<float>(1.0 / sum);
    for (std::int64_t j = 0; j < l; ++j) out[j] *= inv;
  }
}

double SoftmaxCrossEntropy::forward(const Tensor& logits,
                                    std::span<const std::int64_t> labels) {
  ZKA_CHECK(logits.rank() == 2 &&
                logits.dim(0) == static_cast<std::int64_t>(labels.size()),
            "SoftmaxCrossEntropy: logits %s vs %zu labels",
            tensor::shape_to_string(logits.shape()).c_str(), labels.size());
  const std::int64_t l = logits.dim(1);
  targets_.resize(logits.shape());
  targets_.fill(0.0f);
  for (std::size_t i = 0; i < labels.size(); ++i) {
    ZKA_CHECK(labels[i] >= 0 && labels[i] < l,
              "SoftmaxCrossEntropy: label %lld out of [0, %lld)",
              static_cast<long long>(labels[i]), static_cast<long long>(l));
    targets_[static_cast<std::int64_t>(i) * l + labels[i]] = 1.0f;
  }
  return evaluate(logits);
}

double SoftmaxCrossEntropy::forward(const Tensor& logits,
                                    const Tensor& soft_targets) {
  ZKA_CHECK_SHAPE(soft_targets.shape(), logits.shape(),
                  "SoftmaxCrossEntropy targets");
  targets_ = soft_targets;
  return evaluate(logits);
}

double SoftmaxCrossEntropy::evaluate(const Tensor& logits) {
  softmax_rows(logits, probs_);
  const std::int64_t n = logits.dim(0);
  double loss = 0.0;
  for (std::int64_t i = 0; i < probs_.numel(); ++i) {
    if (targets_[i] != 0.0f) {
      loss -= static_cast<double>(targets_[i]) *
              static_cast<double>(std::log(std::max(probs_[i], 1e-12f)));
    }
  }
  return static_cast<double>(scale_) * loss /
         static_cast<double>(std::max<std::int64_t>(n, 1));
}

const Tensor& SoftmaxCrossEntropy::backward() {
  ZKA_CHECK(probs_.numel() > 0,
            "SoftmaxCrossEntropy::backward before forward");
  const float k =
      scale_ / static_cast<float>(std::max<std::int64_t>(probs_.dim(0), 1));
  grad_.resize(probs_.shape());
  const float* p = probs_.raw();
  const float* t = targets_.raw();
  float* g = grad_.raw();
  for (std::int64_t i = 0; i < probs_.numel(); ++i) g[i] = (p[i] - t[i]) * k;
  return grad_;
}

std::int64_t correct_predictions(const Tensor& logits,
                                 std::span<const std::int64_t> labels) {
  ZKA_CHECK(logits.rank() == 2 &&
                logits.dim(0) == static_cast<std::int64_t>(labels.size()),
            "correct_predictions: logits %s vs %zu labels",
            tensor::shape_to_string(logits.shape()).c_str(), labels.size());
  const std::int64_t cols = logits.dim(1);
  std::int64_t hits = 0;
  for (std::size_t i = 0; i < labels.size(); ++i) {
    const float* row = logits.raw() + static_cast<std::int64_t>(i) * cols;
    hits += std::max_element(row, row + cols) - row == labels[i] ? 1 : 0;
  }
  return hits;
}

}  // namespace zka::nn
