#include "fl/client.h"

#include <gtest/gtest.h>

#include "data/synthetic.h"
#include "nn/loss.h"
#include "util/stats.h"

namespace zka::fl {
namespace {

class ClientTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dataset_ = data::make_synthetic_dataset(models::Task::kFashion, 40, 11);
    factory_ = models::task_model_factory(models::Task::kFashion);
    global_ = nn::get_flat_params(*factory_(99));
  }

  std::vector<std::int64_t> all_indices() const {
    std::vector<std::int64_t> idx(static_cast<std::size_t>(dataset_.size()));
    for (std::int64_t i = 0; i < dataset_.size(); ++i) {
      idx[static_cast<std::size_t>(i)] = i;
    }
    return idx;
  }

  data::Dataset dataset_;
  models::ModelFactory factory_;
  std::vector<float> global_;
};

TEST_F(ClientTest, TrainIsDeterministicGivenSeed) {
  const auto indices = all_indices();
  Client client(0, dataset_, indices, factory_, {});
  EXPECT_EQ(client.train(global_, 123), client.train(global_, 123));
  EXPECT_NE(client.train(global_, 123), client.train(global_, 124));
}

TEST_F(ClientTest, TrainImprovesLocalFit) {
  data::LocalSgdOptions opts;
  opts.local_epochs = 3;
  opts.learning_rate = 0.05f;
  const auto indices = all_indices();
  Client client(0, dataset_, indices, factory_, opts);
  const auto update = client.train(global_, 5);

  auto model = factory_(0);
  nn::SoftmaxCrossEntropy ce;
  nn::set_flat_params(*model, global_);
  const double loss_before =
      ce.forward(model->forward(dataset_.images), dataset_.labels);
  nn::set_flat_params(*model, update);
  const double loss_after =
      ce.forward(model->forward(dataset_.images), dataset_.labels);
  EXPECT_LT(loss_after, loss_before);
}

TEST_F(ClientTest, EmptyShardReturnsGlobalUnchanged) {
  Client client(1, dataset_, {}, factory_, {});
  EXPECT_EQ(client.train(global_, 1), global_);
  EXPECT_EQ(client.num_samples(), 0);
}

TEST_F(ClientTest, UpdateStaysNearGlobalForOneEpoch) {
  const auto indices = all_indices();
  Client client(2, dataset_, indices, factory_, {});
  const auto update = client.train(global_, 7);
  EXPECT_GT(util::l2_distance(update, global_), 1e-5);
  EXPECT_LT(util::l2_distance(update, global_), 50.0);
}

TEST_F(ClientTest, IdAndIndicesAccessors) {
  const std::vector<std::int64_t> indices = {1, 2, 3};
  Client client(42, dataset_, indices, factory_, {});
  EXPECT_EQ(client.id(), 42);
  EXPECT_EQ(client.num_samples(), 3);
  std::vector<std::int64_t> shard = {9, 9, 9, 9, 9};
  client.shard(shard);
  EXPECT_EQ(shard, indices);
}

// A hashed-spec client computes the spec's shard, and trains exactly as a
// client handed that shard's indices.
TEST_F(ClientTest, HashedShardClientMatchesIndexClient) {
  const data::HashedShardSpec spec(dataset_.size(), 1000, 12, 5);
  Client hashed(17, dataset_, spec, factory_, {});
  const auto indices = spec.shard(17);
  Client listed(17, dataset_, indices, factory_, {});
  EXPECT_EQ(hashed.num_samples(), 12);
  std::vector<std::int64_t> shard;
  hashed.shard(shard);
  EXPECT_EQ(shard, indices);
  EXPECT_EQ(hashed.train(global_, 3), listed.train(global_, 3));
}

}  // namespace
}  // namespace zka::fl
