// Client training through fl::ClientRegistry, over a stored partition and
// over a hashed shard spec.
#include "fl/registry.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "data/synthetic.h"
#include "nn/loss.h"
#include "nn/sgd.h"
#include "util/rng.h"
#include "util/stats.h"

namespace zka::fl {
namespace {

class ClientTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dataset_ = data::make_synthetic_dataset(models::Task::kFashion, 40, 11);
    global_ = nn::get_flat_params(*factory_(99));
  }

  std::vector<std::int64_t> all_indices() const {
    std::vector<std::int64_t> idx(static_cast<std::size_t>(dataset_.size()));
    std::iota(idx.begin(), idx.end(), std::int64_t{0});
    return idx;
  }

  /// A registry whose only client owns `indices`.
  ClientRegistry one_client(std::vector<std::int64_t> indices,
                            data::LocalSgdOptions options = {}) const {
    return ClientRegistry(dataset_, {std::move(indices)}, options);
  }

  /// Client `id` of `registry` trained on the calling participant's replica.
  std::vector<float> train(const ClientRegistry& registry, std::int64_t id,
                           std::uint64_t seed) {
    std::vector<float> out;
    registry.train(id, global_, seed, replicas_.mine(), out);
    return out;
  }

  data::Dataset dataset_;
  models::ModelFactory factory_ =
      models::task_model_factory(models::Task::kFashion);
  data::ReplicaSet replicas_{factory_};
  std::vector<float> global_;
};

TEST_F(ClientTest, TrainIsDeterministicGivenSeed) {
  const ClientRegistry registry = one_client(all_indices());
  EXPECT_EQ(train(registry, 0, 123), train(registry, 0, 123));
  EXPECT_NE(train(registry, 0, 123), train(registry, 0, 124));
}

TEST_F(ClientTest, TrainImprovesLocalFit) {
  data::LocalSgdOptions opts;
  opts.local_epochs = 3;
  opts.learning_rate = 0.05f;
  const ClientRegistry registry = one_client(all_indices(), opts);
  const auto update = train(registry, 0, 5);

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
  const ClientRegistry registry(dataset_, {all_indices(), {}}, {});
  EXPECT_EQ(train(registry, 1, 1), global_);
  EXPECT_EQ(registry.num_samples(1), 0);
}

TEST_F(ClientTest, UpdateStaysNearGlobalForOneEpoch) {
  const ClientRegistry registry = one_client(all_indices());
  const auto update = train(registry, 0, 7);
  EXPECT_GT(util::l2_distance(update, global_), 1e-5);
  EXPECT_LT(util::l2_distance(update, global_), 50.0);
}

TEST_F(ClientTest, NumSamplesAndShardAccessors) {
  const std::vector<std::int64_t> indices = {1, 2, 3};
  const ClientRegistry registry(dataset_, {all_indices(), indices}, {});
  EXPECT_EQ(registry.population(), 2);
  EXPECT_EQ(registry.num_samples(1), 3);
  std::vector<std::int64_t> shard = {9, 9, 9, 9, 9};
  registry.shard(1, shard);
  EXPECT_EQ(shard, indices);
  EXPECT_THROW(registry.shard(2, shard), std::invalid_argument);
  EXPECT_THROW(registry.num_samples(-1), std::invalid_argument);
}

// A hashed registry computes the spec's shards, and trains each client
// exactly as a registry that stores those shards: 16 random (id, seed)
// pairs per shard size, each size leaving a partial last batch of 5.
TEST_F(ClientTest, HashedShardClientMatchesIndexClient) {
  const data::LocalSgdOptions options = {.local_epochs = 2, .batch_size = 5};
  util::Rng rng(17);
  std::vector<std::int64_t> shard;
  for (const std::int64_t size : {12, 7}) {
    const data::HashedShardSpec spec(dataset_.size(), 1000, size, 5);
    const ClientRegistry hashed(dataset_, spec, options);
    std::vector<std::vector<std::int64_t>> parts(1000);
    for (std::int64_t id = 0; id < 1000; ++id) {
      parts[static_cast<std::size_t>(id)] = spec.shard(id);
    }
    const ClientRegistry listed(dataset_, std::move(parts), options);
    for (int pair = 0; pair < 16; ++pair) {
      const auto id = static_cast<std::int64_t>(rng.uniform_index(1000));
      const std::uint64_t seed = rng();
      EXPECT_EQ(hashed.num_samples(id), size);
      hashed.shard(id, shard);
      EXPECT_EQ(shard, spec.shard(id)) << "client " << id;
      EXPECT_EQ(train(hashed, id, seed), train(listed, id, seed))
          << "client " << id << " seed " << seed;
    }
  }
}

// local_sgd against a test-side loop: one discarded draw, then per epoch a
// shuffle of the row list and batches of its consecutive entries, each an
// sgd_step. Every shard size ends both epochs on a partial batch of 5.
TEST_F(ClientTest, LocalSgdMatchesReferenceLoop) {
  const data::LocalSgdOptions options = {.local_epochs = 2, .batch_size = 5};
  for (const std::int64_t size : {7, 12, 33}) {
    std::vector<std::int64_t> rows;
    for (std::int64_t i = 0; i < size; ++i) rows.push_back(i * 7 % 40);
    data::TrainScratch& scratch = replicas_.mine();
    scratch.indices = rows;
    util::Rng rng(static_cast<std::uint64_t>(size));
    std::vector<float> trained;
    data::local_sgd(global_, dataset_, options, rng, scratch, trained);

    auto model = factory_(0);
    nn::set_flat_params(*model, global_);
    nn::Sgd optimizer(*model, options.learning_rate);
    nn::SoftmaxCrossEntropy loss;
    util::Rng ref_rng(static_cast<std::uint64_t>(size));
    static_cast<void>(ref_rng());
    for (std::int64_t epoch = 0; epoch < options.local_epochs; ++epoch) {
      ref_rng.shuffle(rows);
      for (std::int64_t begin = 0; begin < size; begin += 5) {
        const std::vector<std::int64_t> batch(
            rows.begin() + begin, rows.begin() + std::min(begin + 5, size));
        std::vector<std::int64_t> labels;
        for (const std::int64_t r : batch) {
          labels.push_back(dataset_.labels[static_cast<std::size_t>(r)]);
        }
        nn::sgd_step(*model, optimizer, loss,
                     dataset_.images.index_select0(batch), labels);
      }
    }
    EXPECT_EQ(trained, nn::get_flat_params(*model)) << "shard size " << size;
    EXPECT_EQ(scratch.indices, rows) << "shard size " << size;
  }
}

TEST_F(ClientTest, LocalSgdRejectsAnEmptyBatchSize) {
  data::TrainScratch& scratch = replicas_.mine();
  scratch.indices = all_indices();
  util::Rng rng(1);
  std::vector<float> out;
  EXPECT_THROW(
      data::local_sgd(global_, dataset_, {.batch_size = 0}, rng, scratch, out),
      std::invalid_argument);
}

// Training needs a built model: the registry trains on the caller's
// replica and builds none of its own.
TEST_F(ClientTest, TrainRequiresABuiltModel) {
  const ClientRegistry registry = one_client(all_indices());
  data::TrainScratch empty;
  std::vector<float> out;
  EXPECT_THROW(registry.train(0, global_, 1, empty, out),
               std::invalid_argument);
}

}  // namespace
}  // namespace zka::fl
