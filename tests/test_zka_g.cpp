// ZKA-G behavioural tests (Sec. IV-C / Fig. 3 of the paper).
#include "core/zka_g.h"

#include <gtest/gtest.h>

#include <cmath>

#include "analysis/pca.h"
#include "core/zka_r.h"
#include "nn/loss.h"
#include "tensor/reduce.h"
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
  opts.synthetic_size = 8;
  opts.synthesis_epochs = 4;
  opts.latent_dim = 16;
  opts.classifier.epochs = 1;
  opts.classifier.batch_size = 8;
  return opts;
}

TEST(ZkaG, IsZeroKnowledge) {
  ZkaGAttack attack(models::Task::kFashion, small_options(), 1);
  EXPECT_FALSE(attack.needs_benign_updates());
  EXPECT_EQ(attack.name(), "ZKA-G");
}

TEST(ZkaG, CraftsUpdateOfGlobalSize) {
  const auto factory = models::task_model_factory(models::Task::kFashion);
  const std::vector<float> global = nn::get_flat_params(*factory(3));
  ZkaGAttack attack(models::Task::kFashion, small_options(), 2);
  const auto update = attack.craft(context_for(global, global));
  ASSERT_EQ(update.size(), global.size());
  EXPECT_GT(util::l2_distance(update, global), 1e-4);
}

TEST(ZkaG, GeneratorTrainingIncreasesCrossEntropyVsDecoy) {
  // The generator maximizes CE(w(t)(G(Z)), Ỹ): the recorded (positive)
  // loss trajectory must trend upward.
  const auto factory = models::task_model_factory(models::Task::kFashion);
  const std::vector<float> global = nn::get_flat_params(*factory(4));
  ZkaOptions opts = small_options();
  opts.synthesis_epochs = 10;
  opts.synthesis_lr = 0.05f;
  ZkaGAttack attack(models::Task::kFashion, opts, 3);
  attack.craft(context_for(global, global));
  const auto& losses = attack.synthesis_loss_history();
  ASSERT_EQ(losses.size(), 10u);
  EXPECT_GT(losses.back(), losses.front());
}

TEST(ZkaG, GeneratedImagesAvoidDecoyClass) {
  const auto factory = models::task_model_factory(models::Task::kFashion);
  auto classifier = factory(5);
  const std::vector<float> global = nn::get_flat_params(*classifier);
  ZkaOptions opts = small_options();
  opts.synthesis_epochs = 15;
  opts.synthesis_lr = 0.05f;
  opts.decoy_label = 3;
  ZkaGAttack attack(models::Task::kFashion, opts, 4);
  attack.craft(context_for(global, global));

  nn::set_flat_params(*classifier, global);
  const tensor::Tensor probs =
      nn::softmax_rows(classifier->forward(attack.last_synthetic_images()));
  // Mean probability of the decoy class must be below the uniform 1/10.
  double decoy_prob = 0.0;
  for (std::int64_t i = 0; i < probs.dim(0); ++i) {
    decoy_prob += probs[i * 10 + 3];
  }
  decoy_prob /= static_cast<double>(probs.dim(0));
  EXPECT_LT(decoy_prob, 0.1);
}

TEST(ZkaG, GeneratorPersistsAcrossRounds) {
  // The same fixed Z must give evolving (trained) but related images; the
  // generator is not reinitialized between craft() calls.
  const auto factory = models::task_model_factory(models::Task::kFashion);
  const std::vector<float> global = nn::get_flat_params(*factory(6));
  ZkaOptions opts = small_options();
  opts.synthesis_epochs = 2;
  opts.synthesis_lr = 0.005f;
  ZkaGAttack attack(models::Task::kFashion, opts, 5);
  attack.craft(context_for(global, global));
  const tensor::Tensor round1 = attack.last_synthetic_images();
  attack.craft(context_for(global, global));
  const tensor::Tensor round2 = attack.last_synthetic_images();
  // Trained further -> images changed...
  EXPECT_FALSE(tensor::allclose(round1, round2, 1e-6f));
  // ...but not wildly (same generator, same Z).
  EXPECT_LT(util::l2_distance(round1.data(), round2.data()),
            0.5 * std::sqrt(tensor::squared_norm(round1.data())));
}

TEST(ZkaG, StaticVariantProducesIdenticalImagesEveryRound) {
  const auto factory = models::task_model_factory(models::Task::kFashion);
  const std::vector<float> global = nn::get_flat_params(*factory(7));
  ZkaOptions opts = small_options();
  opts.train_synthesis = false;
  ZkaGAttack attack(models::Task::kFashion, opts, 6);
  EXPECT_EQ(attack.name(), "ZKA-G-static");
  attack.craft(context_for(global, global));
  const tensor::Tensor round1 = attack.last_synthetic_images();
  attack.craft(context_for(global, global));
  EXPECT_TRUE(tensor::allclose(round1, attack.last_synthetic_images()));
  EXPECT_TRUE(attack.synthesis_loss_history().empty());
}

TEST(ZkaG, ImagesInTanhRangeAndTaskShape) {
  const auto factory = models::task_model_factory(models::Task::kCifar);
  const std::vector<float> global = nn::get_flat_params(*factory(8));
  ZkaOptions opts = small_options();
  opts.synthetic_size = 4;
  opts.synthesis_epochs = 2;
  ZkaGAttack attack(models::Task::kCifar, opts, 7);
  attack.craft(context_for(global, global, models::Task::kCifar));
  const tensor::Tensor& images = attack.last_synthetic_images();
  EXPECT_EQ(images.shape(), (tensor::Shape{4, 3, 32, 32}));
  for (std::int64_t i = 0; i < images.numel(); ++i) {
    ASSERT_GE(images[i], -1.0f);
    ASSERT_LE(images[i], 1.0f);
  }
}

TEST(ZkaFig4, ZkaRSyntheticDataSpreadsWiderThanZkaG) {
  // Fig. 4's core claim: ZKA-R (random full-size images through a filter)
  // produces higher-variance synthetic data than ZKA-G (one low-dim latent
  // through a shared generator).
  const auto factory = models::task_model_factory(models::Task::kFashion);
  const std::vector<float> global = nn::get_flat_params(*factory(9));

  ZkaOptions opts_r = small_options();
  opts_r.synthetic_size = 12;
  opts_r.synthesis_epochs = 3;
  ZkaRAttack zka_r(models::Task::kFashion, opts_r, 10);
  zka_r.craft(context_for(global, global));

  ZkaOptions opts_g = small_options();
  opts_g.synthetic_size = 12;
  opts_g.synthesis_epochs = 3;
  ZkaGAttack zka_g(models::Task::kFashion, opts_g, 10);
  zka_g.craft(context_for(global, global));

  const double var_r =
      analysis::mean_feature_variance(zka_r.last_synthetic_images());
  const double var_g =
      analysis::mean_feature_variance(zka_g.last_synthetic_images());
  EXPECT_GT(var_r, var_g);
}

}  // namespace
}  // namespace zka::core
