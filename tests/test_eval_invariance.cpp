// Why the pool evaluation gives the serial one's bits: a row's logits do
// not depend on the batch that holds it, because a GEMM element's
// accumulation order does not depend on the operand's other rows or
// columns, and accuracy is an integer hit count. Registered at several pool
// sizes, so the pool-parallel GEMM chunking is covered too.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <numeric>
#include <span>
#include <vector>

#include "data/local_sgd.h"
#include "data/synthetic.h"
#include "fl/metrics.h"
#include "models/models.h"
#include "tensor/gemm_dispatch.h"
#include "util/rng.h"

namespace zka {
namespace {

using tensor::Tensor;

bool same_bits(std::span<const float> a, std::span<const float> b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size_bytes()) == 0;
}

// Row r of `rows` images, as a [1, C, H, W] tensor.
Tensor row_of(const Tensor& rows, std::int64_t r) {
  const std::int64_t plane = rows.numel() / rows.dim(0);
  Tensor out({1, rows.dim(1), rows.dim(2), rows.dim(3)});
  std::copy(rows.raw() + r * plane, rows.raw() + (r + 1) * plane, out.raw());
  return out;
}

// Rows [begin, end) of `rows`, as one batch.
Tensor rows_of(const Tensor& rows, std::int64_t begin, std::int64_t end) {
  const std::int64_t plane = rows.numel() / rows.dim(0);
  Tensor out({end - begin, rows.dim(1), rows.dim(2), rows.dim(3)});
  std::copy(rows.raw() + begin * plane, rows.raw() + end * plane, out.raw());
  return out;
}

// 71 random inputs through one kept model, at batch 1 and then at batch
// sizes that leave a partial last batch (71 = 64 + 7 = 10 * 7 + 1): every
// row's logits must equal its batch-1 logits bit for bit, whatever batch
// shapes the model's buffers held before.
TEST(BatchInvariance, LogitsDoNotDependOnTheBatch) {
  for (const models::Task task :
       {models::Task::kFashion, models::Task::kCifar}) {
    const models::ImageSpec spec = models::task_spec(task);
    util::Rng rng(17);
    const std::int64_t n = 71;
    const Tensor inputs = Tensor::uniform(
        {n, spec.channels, spec.height, spec.width}, rng, -1.0f, 1.0f);
    const auto model = models::task_model_factory(task)(18);

    std::vector<float> reference;
    for (std::int64_t r = 0; r < n; ++r) {
      const Tensor& logits = model->forward(row_of(inputs, r));
      reference.insert(reference.end(), logits.data().begin(),
                       logits.data().end());
    }
    const auto classes = static_cast<std::size_t>(spec.num_classes);

    for (const std::int64_t batch : {2, 3, 7, 64, 1}) {
      for (std::int64_t begin = 0; begin < n; begin += batch) {
        const std::int64_t end = std::min(begin + batch, n);
        const Tensor x = rows_of(inputs, begin, end);
        const Tensor& logits = model->forward(x);
        ASSERT_EQ(logits.numel(),
                  (end - begin) * static_cast<std::int64_t>(classes));
        EXPECT_TRUE(same_bits(
            logits.data(),
            std::span<const float>(reference).subspan(
                static_cast<std::size_t>(begin) * classes,
                static_cast<std::size_t>(end - begin) * classes)))
            << models::task_name(task) << ": batch " << batch << ", rows ["
            << begin << ", " << end << ")";
      }
    }
  }
}

struct Tier {
  const char* name;
  tensor::detail::GemmRangesFn fn;
};

// Every compiled GEMM tier this CPU can run.
std::vector<Tier> runnable_tiers() {
  std::vector<Tier> tiers{{"generic", &tensor::detail::generic::gemm_ranges}};
#if defined(ZKA_GEMM_AVX2)
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) {
    tiers.push_back({"avx2", &tensor::detail::avx2::gemm_ranges});
  }
#endif
#if defined(ZKA_GEMM_AVX512)
  if (__builtin_cpu_supports("avx512f")) {
    tiers.push_back({"avx512f", &tensor::detail::avx512::gemm_ranges});
  }
#endif
  return tiers;
}

// C = op(A) @ op(B) over the full range, into a zeroed [m, n] buffer.
std::vector<float> run_gemm(const Tier& tier,
                            tensor::detail::GemmLayout layout, std::int64_t m,
                            std::int64_t n, std::int64_t k,
                            const std::vector<float>& a,
                            const std::vector<float>& b) {
  std::vector<float> c(static_cast<std::size_t>(m * n), 0.0f);
  tier.fn(layout, m, n, k, 1.0f, a.data(), b.data(), c.data(), 0, m, 0, n, 0,
          (k + tensor::detail::kGemmKC - 1) / tensor::detail::kGemmKC,
          tensor::detail::GemmWrite::kAdd);
  return c;
}

std::vector<float> random_vector(std::int64_t size, util::Rng& rng) {
  std::vector<float> v(static_cast<std::size_t>(size));
  for (float& x : v) x = static_cast<float>(rng.normal(0.0, 1.0));
  return v;
}

// Column j of C = op(A) @ op(B) is the same for every N > j, and row i the
// same for every M > i, on each tier and layout. K = 300 spans two k-panels;
// the sizes cover partial register tiles and partial column blocks.
TEST(BatchInvariance, GemmColumnsAndRowsDoNotDependOnTheOperandSize) {
  using tensor::detail::GemmLayout;
  const std::int64_t k = 300;
  const std::int64_t m_max = 13;
  const std::int64_t n_max = 300;
  for (const Tier& tier : runnable_tiers()) {
    for (const GemmLayout layout :
         {GemmLayout::kAB, GemmLayout::kAtB, GemmLayout::kABt}) {
      util::Rng rng(23);
      // A as [m_max, k] (or [k, m_max] for kAtB), B as [k, n_max] (or
      // [n_max, k] for kABt).
      const std::vector<float> a_full = random_vector(m_max * k, rng);
      const std::vector<float> b_full = random_vector(k * n_max, rng);
      // The first m rows of op(A) and first n columns of op(B).
      const auto a_rows = [&](std::int64_t m) {
        if (layout != GemmLayout::kAtB) {
          return std::vector<float>(a_full.begin(), a_full.begin() + m * k);
        }
        std::vector<float> a(static_cast<std::size_t>(k * m));
        for (std::int64_t p = 0; p < k; ++p) {
          for (std::int64_t i = 0; i < m; ++i) {
            a[static_cast<std::size_t>(p * m + i)] =
                a_full[static_cast<std::size_t>(p * m_max + i)];
          }
        }
        return a;
      };
      const auto b_cols = [&](std::int64_t n) {
        if (layout == GemmLayout::kABt) {
          return std::vector<float>(b_full.begin(), b_full.begin() + n * k);
        }
        std::vector<float> b(static_cast<std::size_t>(k * n));
        for (std::int64_t p = 0; p < k; ++p) {
          for (std::int64_t j = 0; j < n; ++j) {
            b[static_cast<std::size_t>(p * n + j)] =
                b_full[static_cast<std::size_t>(p * n_max + j)];
          }
        }
        return b;
      };
      const std::vector<float> full = run_gemm(
          tier, layout, m_max, n_max, k, a_rows(m_max), b_cols(n_max));
      const auto full_at = [&](std::int64_t i, std::int64_t j) {
        return full[static_cast<std::size_t>(i * n_max + j)];
      };
      for (const std::int64_t n : {1, 2, 3, 7, 31, 32, 33, 64, 257}) {
        const std::vector<float> c =
            run_gemm(tier, layout, m_max, n, k, a_rows(m_max), b_cols(n));
        for (std::int64_t i = 0; i < m_max; ++i) {
          for (std::int64_t j = 0; j < n; ++j) {
            const float v = c[static_cast<std::size_t>(i * n + j)];
            const float want = full_at(i, j);
            ASSERT_EQ(std::memcmp(&v, &want, sizeof v), 0)
                << tier.name << " layout " << static_cast<int>(layout)
                << ": C[" << i << ", " << j << "] at N = " << n;
          }
        }
      }
      for (const std::int64_t m : {1, 2, 3, 5, 7}) {
        const std::vector<float> c =
            run_gemm(tier, layout, m, n_max, k, a_rows(m), b_cols(n_max));
        for (std::int64_t i = 0; i < m; ++i) {
          for (std::int64_t j = 0; j < n_max; ++j) {
            const float v = c[static_cast<std::size_t>(i * n_max + j)];
            const float want = full_at(i, j);
            ASSERT_EQ(std::memcmp(&v, &want, sizeof v), 0)
                << tier.name << " layout " << static_cast<int>(layout)
                << ": C[" << i << ", " << j << "] at M = " << m;
          }
        }
      }
    }
  }
}

// The K split of the GEMM driver, on each tier and layout: k-panel ranges
// that store their tiles into per-panel slots, folded into C in ascending
// panel order (c = 0.0f + slot 0 for beta 0, c += slot otherwise), give
// the bits of one range over every panel. Random skinny shapes, K with a
// partial last panel, random panel cuts, beta 0 / 1 / 0.5.
TEST(KSplit, SlotsFoldedInPanelOrderEqualOneRange) {
  using tensor::detail::GemmLayout;
  using tensor::detail::GemmWrite;
  using tensor::detail::kGemmKC;
  util::Rng rng(41);
  for (const Tier& tier : runnable_tiers()) {
    for (int trial = 0; trial < 8; ++trial) {
      const auto m = static_cast<std::int64_t>(1 + rng.uniform_index(13));
      const auto n = static_cast<std::int64_t>(1 + rng.uniform_index(90));
      const auto panels = static_cast<std::int64_t>(2 + rng.uniform_index(7));
      const std::int64_t k =
          (panels - 1) * kGemmKC +
          static_cast<std::int64_t>(1 + rng.uniform_index(kGemmKC - 1));
      const std::vector<float> a = random_vector(m * k, rng);
      const std::vector<float> b = random_vector(k * n, rng);
      const std::vector<float> c0 = random_vector(m * n, rng);
      const std::int64_t mn = m * n;
      for (const GemmLayout layout :
           {GemmLayout::kAB, GemmLayout::kAtB, GemmLayout::kABt}) {
        for (const float beta : {0.0f, 1.0f, 0.5f}) {
          // C after beta, as the driver leaves it before the product.
          std::vector<float> scaled = c0;
          if (beta != 0.0f) {
            for (float& x : scaled) x *= beta;
          }
          const GemmWrite write =
              beta == 0.0f ? GemmWrite::kBeta0 : GemmWrite::kAdd;
          std::vector<float> one = scaled;
          tier.fn(layout, m, n, k, 1.0f, a.data(), b.data(), one.data(), 0, m,
                  0, n, 0, panels, write);

          std::vector<float> slots(static_cast<std::size_t>(panels * mn),
                                   -1.0f);
          for (std::int64_t q0 = 0; q0 < panels;) {
            const std::int64_t q1 = std::min(
                panels,
                q0 + 1 + static_cast<std::int64_t>(rng.uniform_index(3)));
            tier.fn(layout, m, n, k, 1.0f, a.data(), b.data(),
                    slots.data() + q0 * mn, 0, m, 0, n, q0, q1,
                    GemmWrite::kSlots);
            q0 = q1;
          }
          std::vector<float> folded = scaled;
          for (std::int64_t q = 0; q < panels; ++q) {
            for (std::int64_t i = 0; i < mn; ++i) {
              const float s = slots[static_cast<std::size_t>(q * mn + i)];
              float& c = folded[static_cast<std::size_t>(i)];
              c = q == 0 && beta == 0.0f ? 0.0f + s : c + s;
            }
          }
          EXPECT_TRUE(same_bits(folded, one))
              << tier.name << " layout " << static_cast<int>(layout) << " m="
              << m << " n=" << n << " k=" << k << " beta " << beta;
        }
      }
    }
  }
}

// Parameters that classify some but not all of `dataset` right: a few
// epochs of local SGD from a random model, so the hit count is not
// degenerate.
std::vector<float> partly_trained(models::Task task,
                                  const data::Dataset& dataset) {
  const auto factory = models::task_model_factory(task);
  const std::vector<float> init = nn::get_flat_params(*factory(31));
  util::Rng rng(32);
  data::TrainScratch scratch;
  scratch.model = factory(0);
  scratch.indices.resize(static_cast<std::size_t>(dataset.size()));
  std::iota(scratch.indices.begin(), scratch.indices.end(), std::int64_t{0});
  std::vector<float> out;
  data::local_sgd(init, dataset, {.local_epochs = 2, .batch_size = 16}, rng,
                  scratch, out);
  return out;
}

// The pool evaluation equals the serial batch-64 evaluation bit for bit, at
// its own batch and at others, on replicas left in any state (scrambled
// parameters, buffers from another batch shape, frozen), and on a dataset
// whose size leaves partial batches.
TEST(PoolEval, EqualsSerialEval) {
  for (const models::Task task :
       {models::Task::kFashion, models::Task::kCifar}) {
    const auto train = data::make_synthetic_dataset(task, 160, 33);
    const auto test = data::make_synthetic_dataset(task, 203, 34);
    const std::vector<float> params = partly_trained(task, train);
    const auto factory = models::task_model_factory(task);
    const double serial = fl::evaluate_accuracy(*factory(35), params, test);
    EXPECT_GT(serial, 0.0) << models::task_name(task);
    EXPECT_LT(serial, 1.0) << models::task_name(task);

    data::ReplicaSet replicas(factory);
    util::Rng noise(36);
    const models::ImageSpec spec = models::task_spec(task);
    for (const std::int64_t batch : {fl::kEvalBatch, std::int64_t{1},
                                     std::int64_t{3}, std::int64_t{7},
                                     std::int64_t{64}}) {
      for (std::size_t p = 0; p < replicas.size(); ++p) {
        nn::set_flat_params(replicas.model(p),
                            random_vector(static_cast<std::int64_t>(
                                              params.size()),
                                          noise));
        replicas.model(p).forward(Tensor::normal(
            {5, spec.channels, spec.height, spec.width}, noise));
      }
      const nn::FreezeScope frozen(replicas.model(0));
      const double pooled =
          fl::evaluate_accuracy(replicas, params, test, batch);
      EXPECT_EQ(std::memcmp(&pooled, &serial, sizeof pooled), 0)
          << models::task_name(task) << ": batch " << batch << ", pooled "
          << pooled << " vs serial " << serial;
    }
  }
}

}  // namespace
}  // namespace zka
