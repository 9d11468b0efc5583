// ZKA-R behavioural tests (Sec. IV-B / Fig. 2 of the paper).
#include "core/zka_r.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <span>

#include "core/adversarial_trainer.h"
#include "nn/loss.h"
#include "nn/sgd.h"
#include "util/rng.h"
#include "util/stats.h"

namespace zka::core {
namespace {

/// The classifier replicas every craft here borrows, one set per task, as
/// a simulation lends its own.
data::ReplicaSet& replicas_for(models::Task task) {
  static data::ReplicaSet fashion(
      models::task_model_factory(models::Task::kFashion));
  static data::ReplicaSet cifar(
      models::task_model_factory(models::Task::kCifar));
  return task == models::Task::kCifar ? cifar : fashion;
}

attack::AttackContext context_for(
    const std::vector<float>& global, const std::vector<float>& prev,
    models::Task task = models::Task::kFashion) {
  attack::AttackContext ctx;
  ctx.replicas = &replicas_for(task);
  ctx.global_model = global;
  ctx.prev_global_model = prev;
  ctx.round = 1;
  ctx.num_selected = 10;
  ctx.num_malicious_selected = 2;
  return ctx;
}

ZkaOptions small_options() {
  ZkaOptions opts;
  opts.synthetic_size = 6;
  opts.synthesis_epochs = 4;
  opts.classifier.epochs = 1;
  opts.classifier.batch_size = 6;
  return opts;
}

TEST(ZkaR, IsZeroKnowledge) {
  ZkaRAttack attack(models::Task::kFashion, small_options(), 1);
  EXPECT_FALSE(attack.needs_benign_updates());
  EXPECT_EQ(attack.name(), "ZKA-R");
}

TEST(ZkaR, CraftsUpdateOfGlobalSizeDifferentFromGlobal) {
  const auto factory = models::task_model_factory(models::Task::kFashion);
  const std::vector<float> global = nn::get_flat_params(*factory(7));
  ZkaRAttack attack(models::Task::kFashion, small_options(), 2);
  const auto update = attack.craft(context_for(global, global));
  ASSERT_EQ(update.size(), global.size());
  EXPECT_GT(util::l2_distance(update, global), 1e-4);
}

TEST(ZkaR, SynthesisLossDecreasesOverEpochs) {
  // Fig. 6: the filter training converges within few epochs.
  const auto factory = models::task_model_factory(models::Task::kFashion);
  const std::vector<float> global = nn::get_flat_params(*factory(8));
  ZkaOptions opts = small_options();
  opts.synthesis_epochs = 8;
  opts.synthesis_lr = 0.1f;
  ZkaRAttack attack(models::Task::kFashion, opts, 3);
  attack.craft(context_for(global, global));
  const auto& losses = attack.synthesis_loss_history();
  ASSERT_EQ(losses.size(), 8u);
  EXPECT_LT(losses.back(), losses.front());
}

TEST(ZkaR, TrainedImagesAreMoreAmbiguousThanStatic) {
  // The trained filter must push the global model's prediction on B toward
  // the uniform distribution Y_D (lower CE against uniform than random
  // images achieve).
  const auto factory = models::task_model_factory(models::Task::kFashion);
  auto classifier = factory(9);
  const std::vector<float> global = nn::get_flat_params(*classifier);

  ZkaOptions trained_opts = small_options();
  trained_opts.synthesis_epochs = 10;
  trained_opts.synthesis_lr = 0.1f;
  ZkaRAttack trained(models::Task::kFashion, trained_opts, 4);
  trained.craft(context_for(global, global));

  ZkaOptions static_opts = small_options();
  static_opts.train_synthesis = false;
  ZkaRAttack untrained(models::Task::kFashion, static_opts, 4);
  untrained.craft(context_for(global, global));
  EXPECT_EQ(untrained.name(), "ZKA-R-static");

  auto ambiguity = [&](const tensor::Tensor& images) {
    nn::set_flat_params(*classifier, global);
    const tensor::Tensor logits = classifier->forward(images);
    tensor::Tensor uniform(logits.shape(), 0.1f);
    nn::SoftmaxCrossEntropy ce;
    return ce.forward(logits, uniform);
  };
  EXPECT_LT(ambiguity(trained.last_synthetic_images()),
            ambiguity(untrained.last_synthetic_images()));
}

TEST(ZkaR, StaticVariantSkipsTraining) {
  const auto factory = models::task_model_factory(models::Task::kFashion);
  const std::vector<float> global = nn::get_flat_params(*factory(10));
  ZkaOptions opts = small_options();
  opts.train_synthesis = false;
  ZkaRAttack attack(models::Task::kFashion, opts, 5);
  attack.craft(context_for(global, global));
  EXPECT_TRUE(attack.synthesis_loss_history().empty());
}

TEST(ZkaR, DecoyLabelFixedAndWithinRange) {
  ZkaRAttack attack(models::Task::kFashion, small_options(), 6);
  EXPECT_GE(attack.decoy_label(), 0);
  EXPECT_LT(attack.decoy_label(), 10);
  ZkaOptions opts = small_options();
  opts.decoy_label = 7;
  ZkaRAttack fixed(models::Task::kFashion, opts, 6);
  EXPECT_EQ(fixed.decoy_label(), 7);
}

TEST(ZkaR, SyntheticImageShapesMatchTask) {
  const auto factory = models::task_model_factory(models::Task::kCifar);
  const std::vector<float> global = nn::get_flat_params(*factory(11));
  ZkaOptions opts = small_options();
  opts.synthetic_size = 3;
  opts.synthesis_epochs = 2;
  ZkaRAttack attack(models::Task::kCifar, opts, 7);
  attack.craft(context_for(global, global, models::Task::kCifar));
  EXPECT_EQ(attack.last_synthetic_images().shape(),
            (tensor::Shape{3, 3, 32, 32}));
}

TEST(ZkaR, RejectsWrongGlobalSize) {
  ZkaRAttack attack(models::Task::kFashion, small_options(), 8);
  const std::vector<float> bogus(17, 0.0f);
  EXPECT_THROW(attack.craft(context_for(bogus, bogus)), std::exception);
}

// ZKA-R as one sample after another on one unfrozen classifier, each
// epoch's loss summed as it comes: the attack's serial reference. It
// replays the attack's draws from its seed (decoy label, the working
// classifier's seed, the samples' images and filter streams, step 2).
class SerialZkaR {
 public:
  SerialZkaR(models::Task task, ZkaOptions options, std::uint64_t seed)
      : spec_(models::task_spec(task)),
        options_(options),
        rng_(seed),
        classifier_(models::task_model_factory(task)(0)) {
    decoy_ = options.decoy_label >= 0
                 ? options.decoy_label
                 : static_cast<std::int64_t>(rng_.uniform_index(
                       static_cast<std::uint64_t>(spec_.num_classes)));
  }

  std::vector<float> craft(const std::vector<float>& global,
                           const std::vector<float>& prev) {
    rng_.split(0x5ea)();  // the working classifier's seed
    nn::set_flat_params(*classifier_, global);
    const tensor::Tensor ambiguous(
        {1, spec_.num_classes}, 1.0f / static_cast<float>(spec_.num_classes));
    const std::int64_t s_count = options_.synthetic_size;
    images_ =
        tensor::Tensor({s_count, spec_.channels, spec_.height, spec_.width});
    losses_.assign(static_cast<std::size_t>(options_.train_synthesis
                                                ? options_.synthesis_epochs
                                                : 0),
                   0.0);
    nn::SoftmaxCrossEntropy loss;
    for (std::int64_t s = 0; s < s_count; ++s) {
      const tensor::Tensor a = tensor::Tensor::uniform(
          {1, spec_.channels, spec_.height, spec_.width}, rng_, -1.0f, 1.0f);
      util::Rng filter_rng =
          rng_.split(0xf117 + static_cast<std::uint64_t>(s));
      auto filter =
          models::make_filter_layer(spec_, options_.filter_kernel, filter_rng);
      nn::Sgd optimizer(*filter, options_.synthesis_lr);
      for (std::size_t epoch = 0; epoch < losses_.size(); ++epoch) {
        optimizer.zero_grad();
        classifier_->zero_grad();
        const double l = loss.forward(
            classifier_->forward(filter->forward(a)), ambiguous);
        filter->backward(classifier_->backward(loss.backward()));
        optimizer.step();
        losses_[epoch] += l / static_cast<double>(s_count);
      }
      const tensor::Tensor& b = filter->forward(a);
      std::copy(b.data().begin(), b.data().end(),
                images_.data().begin() + s * spec_.pixels());
    }
    nn::set_flat_params(*classifier_, global);
    AdversarialTrainer(options_.classifier)
        .train(*classifier_, images_, decoy_, global, prev, rng_);
    return nn::get_flat_params(*classifier_);
  }

  const tensor::Tensor& images() const { return images_; }
  const std::vector<double>& losses() const { return losses_; }

 private:
  models::ImageSpec spec_;
  ZkaOptions options_;
  util::Rng rng_;
  std::unique_ptr<nn::Sequential> classifier_;
  std::int64_t decoy_ = 0;
  tensor::Tensor images_;
  std::vector<double> losses_;
};

template <typename T>
bool same_bits(std::span<const T> a, std::span<const T> b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size_bytes()) == 0);
}

// The pool-parallel synthesis on frozen replicas equals the serial
// reference bit for bit, over three crafts of one attack (the lent replicas
// and its buffers reused) and a sample count no pool size divides evenly.
void check_against_serial(models::Task task, bool train_synthesis) {
  const auto factory = models::task_model_factory(task);
  ZkaOptions opts = small_options();
  opts.synthetic_size = 7;
  opts.synthesis_epochs = 3;
  opts.train_synthesis = train_synthesis;
  opts.classifier.batch_size = 4;
  ZkaRAttack attack(task, opts, 21);
  SerialZkaR reference(task, opts, 21);
  std::vector<float> prev = nn::get_flat_params(*factory(22));
  for (std::uint64_t round = 0; round < 3; ++round) {
    const std::vector<float> global = nn::get_flat_params(*factory(23 + round));
    const auto update = attack.craft(context_for(global, prev, task));
    const auto expected = reference.craft(global, prev);
    const std::string where = std::string(models::task_name(task)) +
                              (train_synthesis ? " trained" : " static") +
                              ", craft " + std::to_string(round);
    EXPECT_TRUE(same_bits<float>(attack.last_synthetic_images().data(),
                                 reference.images().data()))
        << where;
    EXPECT_TRUE(same_bits<double>(attack.synthesis_loss_history(),
                                  reference.losses()))
        << where;
    EXPECT_TRUE(same_bits<float>(update, expected)) << where;
    prev = global;
  }
}

TEST(ZkaR, ParallelSynthesisMatchesSerialReference) {
  check_against_serial(models::Task::kFashion, true);
  check_against_serial(models::Task::kCifar, true);
}

TEST(ZkaR, StaticSynthesisMatchesSerialReference) {
  check_against_serial(models::Task::kFashion, false);
}

}  // namespace
}  // namespace zka::core
