#include "data/synthetic.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <span>

#include "data/batch.h"
#include "util/stats.h"

namespace zka::data {
namespace {

TEST(Synthetic, ShapesLabelsAndRange) {
  for (const models::Task task :
       {models::Task::kFashion, models::Task::kCifar}) {
    const Dataset d = make_synthetic_dataset(task, 50, 42);
    const models::ImageSpec spec = models::task_spec(task);
    EXPECT_EQ(d.size(), 50);
    EXPECT_EQ(d.images.shape(),
              (tensor::Shape{50, spec.channels, spec.height, spec.width}));
    for (const auto y : d.labels) {
      ASSERT_GE(y, 0);
      ASSERT_LT(y, spec.num_classes);
    }
    for (std::int64_t i = 0; i < d.images.numel(); ++i) {
      ASSERT_GE(d.images[i], -1.0f);
      ASSERT_LE(d.images[i], 1.0f);
    }
  }
}

TEST(Synthetic, DeterministicInSeed) {
  const Dataset a = make_synthetic_dataset(models::Task::kFashion, 20, 7);
  const Dataset b = make_synthetic_dataset(models::Task::kFashion, 20, 7);
  const Dataset c = make_synthetic_dataset(models::Task::kFashion, 20, 8);
  EXPECT_EQ(a.labels, b.labels);
  EXPECT_TRUE(tensor::allclose(a.images, b.images));
  EXPECT_FALSE(tensor::allclose(a.images, c.images));
}

TEST(Synthetic, AllClassesAppearInLargeSample) {
  const Dataset d = make_synthetic_dataset(models::Task::kFashion, 500, 3);
  std::set<std::int64_t> seen(d.labels.begin(), d.labels.end());
  EXPECT_EQ(seen.size(), 10u);
}

TEST(Synthetic, PrototypesDifferAcrossClasses) {
  for (const models::Task task :
       {models::Task::kFashion, models::Task::kCifar}) {
    for (std::int64_t a = 0; a < 10; ++a) {
      for (std::int64_t b = a + 1; b < 10; ++b) {
        const auto pa = class_prototype(task, a);
        const auto pb = class_prototype(task, b);
        const double dist = util::l2_distance(pa.data(), pb.data());
        EXPECT_GT(dist, 1.0) << "classes " << a << " vs " << b;
      }
    }
  }
}

TEST(Synthetic, SamplesClusterAroundTheirPrototype) {
  // A noisy sample must be closer (on average) to its own prototype than
  // to other prototypes — otherwise the classification task is ill-posed.
  const Dataset d = make_synthetic_dataset(models::Task::kFashion, 100, 11);
  int own_closest = 0;
  std::vector<tensor::Tensor> protos;
  for (std::int64_t k = 0; k < 10; ++k) {
    protos.push_back(class_prototype(models::Task::kFashion, k));
  }
  for (std::int64_t i = 0; i < d.size(); ++i) {
    const tensor::Tensor img = d.image(i);
    double best = 1e300;
    std::int64_t best_class = -1;
    for (std::int64_t k = 0; k < 10; ++k) {
      const double dist = util::l2_distance(img.data(), protos[k].data());
      if (dist < best) {
        best = dist;
        best_class = k;
      }
    }
    if (best_class == d.labels[static_cast<std::size_t>(i)]) ++own_closest;
  }
  // Shift/noise blur this, but most samples should match (chance = 10%).
  EXPECT_GT(own_closest, 50);
}

TEST(Synthetic, NoiseOptionIncreasesVariance) {
  SyntheticOptions quiet;
  quiet.noise_stddev = 0.05f;
  quiet.max_shift = 0;
  SyntheticOptions loud;
  loud.noise_stddev = 0.8f;
  loud.max_shift = 0;
  const Dataset dq = make_synthetic_dataset(models::Task::kFashion, 50, 5,
                                            quiet);
  const Dataset dl = make_synthetic_dataset(models::Task::kFashion, 50, 5,
                                            loud);
  // Compare per-pixel squared deviation from the class prototype.
  auto residual = [](const Dataset& d) {
    double acc = 0.0;
    for (std::int64_t i = 0; i < d.size(); ++i) {
      const auto proto = class_prototype(
          models::Task::kFashion, d.labels[static_cast<std::size_t>(i)]);
      const auto img = d.image(i);
      acc += util::l2_distance(img.data(), proto.data());
    }
    return acc / static_cast<double>(d.size());
  };
  EXPECT_GT(residual(dl), residual(dq) * 1.5);
}

TEST(Dataset, SubsetCopiesRows) {
  const Dataset d = make_synthetic_dataset(models::Task::kFashion, 10, 1);
  const std::vector<std::int64_t> idx{0, 5, 9};
  const Dataset s = d.subset(idx);
  EXPECT_EQ(s.size(), 3);
  EXPECT_EQ(s.labels[1], d.labels[5]);
  EXPECT_TRUE(tensor::allclose(s.image(2), d.image(9)));
}

TEST(Dataset, ClassHistogramCounts) {
  Dataset d;
  d.spec = models::fashion_spec();
  d.spec.num_classes = 3;
  d.labels = {0, 1, 1, 2, 2, 2};
  d.images = tensor::Tensor({6, 1, 1, 1});
  const auto hist = class_histogram(d);
  EXPECT_EQ(hist, (std::vector<std::int64_t>{1, 2, 3}));
}

TEST(GatherBatch, RowsAndLabelsInListedOrder) {
  const Dataset d = make_synthetic_dataset(models::Task::kFashion, 10, 5);
  const std::vector<std::int64_t> rows = {5, 1, 3, 1};
  Batch batch;
  gather_batch(d, rows, batch);
  EXPECT_EQ(batch.images.shape(), (tensor::Shape{4, d.spec.channels,
                                                 d.spec.height, d.spec.width}));
  ASSERT_EQ(batch.labels.size(), rows.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(batch.labels[i], d.labels[static_cast<std::size_t>(rows[i])]);
    const std::int64_t one[] = {static_cast<std::int64_t>(i)};
    EXPECT_TRUE(tensor::allclose(batch.images.index_select0(one),
                                 d.image(rows[i]), 0.0f));
  }
}

TEST(GatherBatch, RowOutsideTheDatasetThrows) {
  const Dataset d = make_synthetic_dataset(models::Task::kFashion, 10, 5);
  Batch batch;
  const std::vector<std::int64_t> past_end = {1, 10};
  EXPECT_THROW(gather_batch(d, past_end, batch), std::out_of_range);
  const std::vector<std::int64_t> negative = {-1};
  EXPECT_THROW(gather_batch(d, negative, batch), std::out_of_range);
}

TEST(GatherBatch, KeptBatchRefillsThroughAPartialLastBatch) {
  const Dataset d = make_synthetic_dataset(models::Task::kFashion, 23, 8);
  const std::vector<std::int64_t> rows = {4, 9, 1, 22, 0, 13, 7, 5, 16};
  const std::span<const std::int64_t> list(rows);
  const std::int64_t pixels = d.spec.pixels();
  Batch kept;  // refilled in place: 4 rows, 4, then the partial batch of 1
  for (std::size_t begin = 0; begin < rows.size(); begin += 4) {
    const auto batch_rows =
        list.subspan(begin, std::min<std::size_t>(4, rows.size() - begin));
    gather_batch(d, batch_rows, kept);
    Batch fresh;
    gather_batch(d, batch_rows, fresh);
    EXPECT_EQ(kept.labels, fresh.labels);
    EXPECT_EQ(kept.images.shape(), fresh.images.shape());
    ASSERT_EQ(kept.images.dim(0), static_cast<std::int64_t>(kept.labels.size()));
    for (std::int64_t i = 0; i < kept.images.dim(0); ++i) {
      const std::int64_t row = batch_rows[static_cast<std::size_t>(i)];
      EXPECT_EQ(kept.labels[static_cast<std::size_t>(i)],
                d.labels[static_cast<std::size_t>(row)]);
      for (std::int64_t p = 0; p < pixels; ++p) {
        ASSERT_EQ(kept.images[i * pixels + p], d.images[row * pixels + p]);
      }
    }
  }
  EXPECT_EQ(kept.labels.size(), 1u);
}

}  // namespace
}  // namespace zka::data
