#include "core/adversarial_trainer.h"

#include <algorithm>
#include <numeric>

#include "nn/sgd.h"
#include "util/check.h"
#include "util/prof.h"

namespace zka::core {

const std::vector<double>& AdversarialTrainer::train(
    nn::Sequential& model, const tensor::Tensor& images,
    std::int64_t decoy_label, std::span<const float> global,
    std::span<const float> prev_global, util::Rng& rng) {
  ZKA_CHECK(images.rank() == 4 && images.dim(0) > 0,
            "AdversarialTrainer: expected non-empty [N,C,H,W], got %s",
            tensor::shape_to_string(images.shape()).c_str());
  ZKA_CHECK(options_.batch_size > 0 && options_.epochs >= 0,
            "AdversarialTrainer: batch_size=%lld epochs=%lld out of range",
            static_cast<long long>(options_.batch_size),
            static_cast<long long>(options_.epochs));
  const std::int64_t n = images.dim(0);
  nn::Sgd optimizer(model, options_.learning_rate);

  order_.resize(static_cast<std::size_t>(n));
  std::iota(order_.begin(), order_.end(), std::int64_t{0});
  epoch_losses_.clear();
  for (std::int64_t epoch = 0; epoch < options_.epochs; ++epoch) {
    ZKA_PROF_SCOPE("adv_trainer/epoch");
    rng.shuffle(order_);
    double total = 0.0;
    std::int64_t batches = 0;
    for (std::int64_t begin = 0; begin < n; begin += options_.batch_size) {
      const std::int64_t end = std::min(begin + options_.batch_size, n);
      const std::span<const std::int64_t> rows(
          order_.data() + begin, static_cast<std::size_t>(end - begin));
      images.index_select0(rows, batch_);
      labels_.assign(rows.size(), decoy_label);

      optimizer.zero_grad();
      double batch_loss = loss_.forward(model.forward(batch_), labels_);
      model.backward(loss_.backward());
      batch_loss +=
          regularizer_.apply(model, global, prev_global, reg_scratch_);
      optimizer.step();

      total += batch_loss;
      ++batches;
    }
    epoch_losses_.push_back(
        total / static_cast<double>(std::max<std::int64_t>(batches, 1)));
  }
  return epoch_losses_;
}

void AdversarialTrainer::set_lambda(double lambda) {
  options_.lambda = lambda;
  regularizer_ = DistanceRegularizer(lambda);
}

}  // namespace zka::core
