#include "core/adversarial_trainer.h"

#include <algorithm>

#include "nn/loss.h"
#include "nn/sgd.h"
#include "util/check.h"
#include "util/prof.h"

namespace zka::core {

std::vector<double> AdversarialTrainer::train(
    nn::Sequential& model, const tensor::Tensor& images,
    std::int64_t decoy_label, std::span<const float> global,
    std::span<const float> prev_global, util::Rng& rng) const {
  ZKA_CHECK(images.rank() == 4 && images.dim(0) > 0,
            "AdversarialTrainer: expected non-empty [N,C,H,W], got %s",
            tensor::shape_to_string(images.shape()).c_str());
  ZKA_CHECK(options_.batch_size > 0 && options_.epochs >= 0,
            "AdversarialTrainer: batch_size=%lld epochs=%lld out of range",
            static_cast<long long>(options_.batch_size),
            static_cast<long long>(options_.epochs));
  const std::int64_t n = images.dim(0);
  nn::Sgd optimizer(model, {.learning_rate = options_.learning_rate});
  nn::SoftmaxCrossEntropy loss;

  std::vector<std::int64_t> order(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) order[static_cast<std::size_t>(i)] = i;

  // Batch, label and regularizer buffers live across the whole call.
  tensor::Tensor batch;
  std::vector<std::int64_t> labels;
  std::vector<float> reg_scratch;
  std::vector<double> epoch_losses;
  epoch_losses.reserve(static_cast<std::size_t>(options_.epochs));
  for (std::int64_t epoch = 0; epoch < options_.epochs; ++epoch) {
    ZKA_PROF_SCOPE("adv_trainer/epoch");
    rng.shuffle(order);
    double total = 0.0;
    std::int64_t batches = 0;
    for (std::int64_t begin = 0; begin < n; begin += options_.batch_size) {
      const std::int64_t end = std::min(begin + options_.batch_size, n);
      const std::span<const std::int64_t> rows(
          order.data() + begin, static_cast<std::size_t>(end - begin));
      images.index_select0(rows, batch);
      labels.assign(rows.size(), decoy_label);

      optimizer.zero_grad();
      double batch_loss = loss.forward(model.forward(batch), labels);
      model.backward(loss.backward());
      batch_loss += regularizer_.apply(model, global, prev_global, reg_scratch);
      optimizer.step();

      total += batch_loss;
      ++batches;
    }
    epoch_losses.push_back(total / static_cast<double>(std::max<std::int64_t>(
                                       batches, 1)));
  }
  return epoch_losses;
}

}  // namespace zka::core
