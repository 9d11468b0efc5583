// Allocation gate: a steady-state training step, a client's whole local
// training, an eval (one serial batch, or a whole pool eval), ZKA step 2,
// a ZKA-R synthesis epoch and a ZKA-G generator epoch allocate nothing,
// and a warm ZKA-R craft allocates nothing per sample.
// This binary replaces the global operator new/delete with counting
// versions; each case runs its step once to warm the buffers up, then
// counts every allocation, on any thread, made while the step runs again.
// Registered at several pool sizes so the pool-parallel GEMM and
// im2col/col2im paths are counted too.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <numeric>
#include <span>
#include <thread>
#include <vector>

#include "core/adversarial_trainer.h"
#include "core/zka_r.h"
#include "data/batch.h"
#include "data/local_sgd.h"
#include "data/partition.h"
#include "data/synthetic.h"
#include "fl/metrics.h"
#include "fl/registry.h"
#include "models/models.h"
#include "nn/loss.h"
#include "nn/sgd.h"
#include "serially.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<long> g_allocations{0};

void* counted_alloc(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace zka {
namespace {

// Allocations made while `step` runs (once warmed up by a first call).
template <typename Step>
long steady_state_allocations(Step&& step) {
  step();
  g_allocations.store(0);
  g_counting.store(true);
  step();
  g_counting.store(false);
  return g_allocations.load();
}

std::vector<float> g_sink;

TEST(AllocationGate, CounterSeesAllocations) {
  // One allocation per call (the temporary's buffer), which the move into
  // a global keeps the compiler from eliding.
  EXPECT_EQ(steady_state_allocations(
                [] { g_sink = std::vector<float>(1000 + g_sink.size()); }),
            1);
}

// Batch gather, forward, loss, backward and Sgd::step, as local SGD runs
// them.
void check_training_step(models::Task task) {
  const auto dataset = data::make_synthetic_dataset(task, 96, 4);
  util::Rng rng(5);
  auto model = models::task_model_factory(task)(6);
  nn::Sgd optimizer(*model, 0.05f);
  nn::SoftmaxCrossEntropy loss;
  std::vector<std::int64_t> rows(static_cast<std::size_t>(dataset.size()));
  std::iota(rows.begin(), rows.end(), std::int64_t{0});
  rng.shuffle(rows);
  data::Batch batch;
  std::size_t b = 0;
  EXPECT_EQ(steady_state_allocations([&] {
              const std::span<const std::int64_t> shuffled(rows);
              data::gather_batch(dataset, shuffled.subspan(b++ % 3 * 32, 32),
                                 batch);
              nn::sgd_step(*model, optimizer, loss, batch.images,
                           batch.labels);
            }),
            0)
      << models::task_name(task);
}

TEST(AllocationGate, FashionTrainingStep) {
  check_training_step(models::Task::kFashion);
}

TEST(AllocationGate, CifarTrainingStep) {
  check_training_step(models::Task::kCifar);
}

// Runs fn(p) once for every participant p of the global pool, each on its
// own thread: a body waits until every participant holds one, so none can
// take a second.
template <typename Fn>
void on_every_participant(Fn fn) {
  util::ThreadPool& pool = util::global_thread_pool();
  const std::size_t n = pool.size() + 1;
  std::atomic<std::size_t> arrived{0};
  pool.parallel_for(n, [&](std::size_t) {
    arrived.fetch_add(1);
    while (arrived.load() < n) std::this_thread::yield();
    fn(pool.participant_index());
  });
}

// One batch of the serial evaluate_accuracy: fetch, forward, count hits.
// Then the pool evaluation: after a warm round, in which every participant
// trained a client on its own replica as Simulation::run does, a whole
// pool eval allocates nothing. So no replica, batch buffer or thread's
// staging grows past what training left it.
TEST(AllocationGate, EvalBatch) {
  const auto dataset =
      data::make_synthetic_dataset(models::Task::kCifar, 128, 7);
  const auto factory = models::task_model_factory(models::Task::kCifar);
  auto model = factory(8);
  data::Batch batch;
  std::int64_t b = 0;
  std::int64_t hits = 0;
  EXPECT_EQ(steady_state_allocations([&] {
              const std::int64_t begin = b++ % 2 * 64;
              data::fill_batch(dataset, begin, begin + 64, batch);
              hits += nn::correct_predictions(model->forward(batch.images),
                                              batch.labels);
            }),
            0);
  EXPECT_GE(hits, 0);

  const std::vector<float> global = nn::get_flat_params(*model);
  data::ReplicaSet replicas(factory);
  std::vector<std::vector<float>> trained(replicas.size());
  on_every_participant([&](std::size_t p) {
    data::TrainScratch& scratch = replicas.slot(p);
    scratch.indices.resize(static_cast<std::size_t>(dataset.size()));
    std::iota(scratch.indices.begin(), scratch.indices.end(), std::int64_t{0});
    util::Rng rng(p);
    data::local_sgd(global, dataset, {}, rng, scratch, trained[p]);
  });
  // 37 rows: the last batch is partial at any eval batch above 1.
  const auto test = data::make_synthetic_dataset(models::Task::kCifar, 37, 9);
  g_allocations.store(0);
  g_counting.store(true);
  const double accuracy = fl::evaluate_accuracy(replicas, global, test);
  g_counting.store(false);
  EXPECT_EQ(g_allocations.load(), 0);
  EXPECT_EQ(accuracy, fl::evaluate_accuracy(*model, global, test));
}

// ZKA step 2 on a kept Cifar classifier at |S| = 16, as ZkaAttack::craft
// runs it every round: the trainer keeps its buffers across crafts.
TEST(AllocationGate, AdversarialTrainerWarmTrain) {
  const auto spec = models::cifar_spec();
  util::Rng rng(11);
  auto model = models::task_model_factory(models::Task::kCifar)(12);
  const std::vector<float> global = nn::get_flat_params(*model);
  std::vector<float> prev = global;
  prev[0] += 0.01f;
  const tensor::Tensor images = tensor::Tensor::uniform(
      {16, spec.channels, spec.height, spec.width}, rng, -1.0f, 1.0f);
  core::AdversarialTrainer trainer(core::AdversarialTrainerOptions{});
  EXPECT_EQ(steady_state_allocations([&] {
              nn::set_flat_params(*model, global);
              trainer.train(*model, images, 3, global, prev, rng);
            }),
            0);
}

// Filter forward, classifier forward, loss, backward into the filter and
// its step; on a frozen classifier (as ZKA-R runs it) and an unfrozen one.
TEST(AllocationGate, ZkaRSynthesisEpoch) {
  for (const bool frozen : {true, false}) {
    const auto spec = models::cifar_spec();
    util::Rng rng(9);
    auto classifier = models::task_model_factory(models::Task::kCifar)(10);
    if (frozen) classifier->freeze();
    auto filter = models::make_filter_layer(spec, 3, rng);
    nn::Sgd optimizer(*filter, 0.1f);
    nn::SoftmaxCrossEntropy loss;
    const tensor::Tensor a = tensor::Tensor::uniform(
        {1, spec.channels, spec.height, spec.width}, rng, -1.0f, 1.0f);
    const tensor::Tensor ambiguous(
        {1, spec.num_classes}, 1.0f / static_cast<float>(spec.num_classes));
    EXPECT_EQ(steady_state_allocations([&] {
                core::synthesis_epoch(*filter, optimizer, *classifier, loss,
                                      a, ambiguous);
              }),
              0)
        << (frozen ? "frozen" : "unfrozen") << " classifier";
  }
}

// A warm ZKA-R craft allocates as much at |S| = 4 as at |S| = 16: each
// participant keeps its filter, optimizer and loss across samples and
// crafts, and the random images are drawn into kept tensors, so nothing is
// allocated per sample. (What a craft does allocate, its returned update
// among it, does not depend on |S|.) The crafts run serially: on the pool,
// which participant takes a sample varies from craft to craft, and one
// that takes its first sample in the counted craft sizes its buffers then.
TEST(AllocationGate, ZkaRCraftAllocatesNothingPerSample) {
  const auto factory = models::task_model_factory(models::Task::kFashion);
  const std::vector<float> global = nn::get_flat_params(*factory(18));
  std::vector<float> prev = global;
  prev[0] += 0.01f;
  data::ReplicaSet replicas(factory);
  attack::AttackContext ctx;
  ctx.replicas = &replicas;
  ctx.global_model = global;
  ctx.prev_global_model = prev;
  ctx.round = 1;
  ctx.num_selected = 10;
  ctx.num_malicious_selected = 2;
  const auto warm_craft_allocations = [&](std::int64_t s_count) {
    core::ZkaOptions opts;
    opts.synthetic_size = s_count;
    opts.synthesis_epochs = 2;
    opts.classifier.epochs = 1;
    opts.classifier.batch_size = 4;
    core::ZkaRAttack attack(models::Task::kFashion, opts, 19);
    return steady_state_allocations(
        [&] { test::serially([&] { attack.craft(ctx); }); });
  };
  EXPECT_EQ(warm_craft_allocations(4), warm_craft_allocations(16));
}

// One ZKA-G generator epoch as ZkaGAttack::synthesize runs it: G(Z), the
// frozen classifier, the ascent loss, backward through the classifier
// into the generator's ConvTranspose2d layers, and the generator's step.
TEST(AllocationGate, ZkaGGeneratorEpoch) {
  const auto spec = models::fashion_spec();
  util::Rng rng(16);
  auto classifier = models::task_model_factory(models::Task::kFashion)(17);
  classifier->freeze();
  auto generator = models::make_tcnn_generator(spec, 64, rng);
  nn::Sgd optimizer(*generator, 0.05f);
  nn::SoftmaxCrossEntropy loss(-1.0f);
  const tensor::Tensor latent = tensor::Tensor::normal({32, 64}, rng);
  const std::vector<std::int64_t> decoy(32, 3);
  EXPECT_EQ(steady_state_allocations([&] {
              optimizer.zero_grad();
              loss.forward(classifier->forward(generator->forward(latent)),
                           decoy);
              generator->backward(classifier->backward(loss.backward()));
              optimizer.step();
            }),
            0);
}

// registry.train(id, ...) on a warm replica, as the simulator's pool
// threads run it: the shard and the local SGD reuse what the replica's
// scratch kept. Each step trains two clients one after the other.
void check_client_train(const fl::ClientRegistry& registry,
                        const char* what) {
  const auto factory = models::task_model_factory(models::Task::kFashion);
  const std::vector<float> global = nn::get_flat_params(*factory(12));
  data::ReplicaSet replicas(factory);
  data::TrainScratch& scratch = replicas.mine();
  std::vector<float> out;
  std::uint64_t seed = 0;
  EXPECT_EQ(steady_state_allocations([&] {
              for (const std::int64_t id : {3, 4}) {
                registry.train(id, global, ++seed, scratch, out);
              }
            }),
            0)
      << what;
}

TEST(AllocationGate, PartitionedRegistryClientTrain) {
  const auto dataset =
      data::make_synthetic_dataset(models::Task::kFashion, 200, 13);
  std::vector<std::vector<std::int64_t>> parts(6);
  for (std::int64_t i = 0; i < dataset.size(); ++i) {
    parts[static_cast<std::size_t>(i % 7 == 0 ? 3 : i % 6)].push_back(i);
  }
  const fl::ClientRegistry registry(dataset, std::move(parts), {});
  check_client_train(registry, "partitioned registry");
}

// Both of the shard draw's paths: Fisher-Yates over a small dataset, Floyd's
// over one above Rng::kDenseSampleMax.
TEST(AllocationGate, HashedRegistryClientTrain) {
  for (const std::int64_t size : {300, 5000}) {
    const auto dataset =
        data::make_synthetic_dataset(models::Task::kFashion, size, 14);
    const fl::ClientRegistry registry(
        dataset, data::HashedShardSpec(dataset.size(), 1000, 40, 15), {});
    check_client_train(registry, size > 4096 ? "hashed, Floyd" : "hashed");
  }
}

}  // namespace
}  // namespace zka
