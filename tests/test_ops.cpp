#include "tensor/ops.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "serially.h"
#include "util/rng.h"

namespace zka::tensor {
namespace {

Tensor random_tensor(Shape shape, std::uint64_t seed) {
  util::Rng rng(seed);
  return Tensor::uniform(std::move(shape), rng, -1.0f, 1.0f);
}

// Naive triple-loop reference for C = A @ B.
Tensor matmul_reference(const Tensor& a, const Tensor& b) {
  Tensor c({a.dim(0), b.dim(1)});
  for (std::int64_t i = 0; i < a.dim(0); ++i) {
    for (std::int64_t j = 0; j < b.dim(1); ++j) {
      double acc = 0.0;
      for (std::int64_t k = 0; k < a.dim(1); ++k) {
        acc += static_cast<double>(a[i * a.dim(1) + k]) * b[k * b.dim(1) + j];
      }
      c[i * b.dim(1) + j] = static_cast<float>(acc);
    }
  }
  return c;
}

// Test-local transpose of a rank-2 tensor, for the transposed layouts'
// references.
Tensor transpose_reference(const Tensor& a) {
  const std::int64_t rows = a.dim(0);
  const std::int64_t cols = a.dim(1);
  Tensor t({cols, rows});
  for (std::int64_t i = 0; i < rows; ++i) {
    for (std::int64_t j = 0; j < cols; ++j) {
      t[j * rows + i] = a[i * cols + j];
    }
  }
  return t;
}

TEST(Gemm, MatchesReference) {
  const Tensor a = random_tensor({7, 5}, 1);
  const Tensor b = random_tensor({5, 9}, 2);
  Tensor c({7, 9});
  gemm(7, 9, 5, 1.0f, a.raw(), b.raw(), 0.0f, c.raw());
  EXPECT_TRUE(allclose(c, matmul_reference(a, b), 1e-4f));
}

TEST(Gemm, HandCase) {
  const Tensor a({2, 2}, std::vector<float>{1, 2, 3, 4});
  const Tensor b({2, 2}, std::vector<float>{5, 6, 7, 8});
  Tensor c({2, 2});
  gemm(2, 2, 2, 1.0f, a.raw(), b.raw(), 0.0f, c.raw());
  EXPECT_FLOAT_EQ(c[0], 19.0f);
  EXPECT_FLOAT_EQ(c[1], 22.0f);
  EXPECT_FLOAT_EQ(c[2], 43.0f);
  EXPECT_FLOAT_EQ(c[3], 50.0f);
}

TEST(Gemm, AlphaBetaSemantics) {
  const Tensor a = random_tensor({3, 4}, 3);
  const Tensor b = random_tensor({4, 2}, 4);
  Tensor c({3, 2}, 1.0f);
  // C = 2*A@B + 3*C.
  gemm(3, 2, 4, 2.0f, a.raw(), b.raw(), 3.0f, c.raw());
  const Tensor ref = matmul_reference(a, b);
  for (std::int64_t i = 0; i < 6; ++i) {
    EXPECT_NEAR(c[i], 2.0f * ref[i] + 3.0f, 1e-4f);
  }
}

TEST(Gemm, AtBMatchesTransposeReference) {
  const Tensor a = random_tensor({6, 3}, 5);  // [K, M]
  const Tensor b = random_tensor({6, 4}, 6);  // [K, N]
  Tensor c({3, 4});
  gemm_at_b(3, 4, 6, 1.0f, a.raw(), b.raw(), 0.0f, c.raw());
  EXPECT_TRUE(allclose(c, matmul_reference(transpose_reference(a), b), 1e-4f));
}

TEST(Gemm, ABtMatchesTransposeReference) {
  const Tensor a = random_tensor({3, 6}, 7);  // [M, K]
  const Tensor b = random_tensor({4, 6}, 8);  // [N, K]
  Tensor c({3, 4});
  gemm_a_bt(3, 4, 6, 1.0f, a.raw(), b.raw(), 0.0f, c.raw());
  EXPECT_TRUE(allclose(c, matmul_reference(a, transpose_reference(b)), 1e-4f));
}

TEST(Gemm, AccumulationWithBetaOne) {
  const Tensor a = random_tensor({4, 2}, 9);  // [K, M] for at_b
  const Tensor b = random_tensor({4, 3}, 10);
  Tensor c({2, 3}, 2.0f);
  gemm_at_b(2, 3, 4, 1.0f, a.raw(), b.raw(), 1.0f, c.raw());
  const Tensor ref = matmul_reference(transpose_reference(a), b);
  for (std::int64_t i = 0; i < 6; ++i) EXPECT_NEAR(c[i], ref[i] + 2.0f, 1e-4f);
}

// ---------- blocked-kernel coverage ----------

enum class GemmRefLayout { kAB, kAtB, kABt };

// Double-precision reference for all three layouts:
// C = alpha * op(A) @ op(B) + beta * C.
void gemm_reference(GemmRefLayout layout, std::int64_t m, std::int64_t n,
                    std::int64_t k, float alpha, const float* a,
                    const float* b, float beta, float* c) {
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (std::int64_t p = 0; p < k; ++p) {
        const float av = layout == GemmRefLayout::kAtB ? a[p * m + i]
                                                       : a[i * k + p];
        const float bv = layout == GemmRefLayout::kABt ? b[j * k + p]
                                                       : b[p * n + j];
        acc += static_cast<double>(av) * bv;
      }
      c[i * n + j] =
          static_cast<float>(alpha * acc + static_cast<double>(beta) * c[i * n + j]);
    }
  }
}

std::vector<float> random_vec(std::int64_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<float> v(static_cast<std::size_t>(n));
  for (auto& x : v) x = static_cast<float>(rng.uniform(-1.0, 1.0));
  return v;
}

// Shapes chosen to straddle every blocking boundary of the packed kernel:
// the 4-row register tile, the 32-column microtile, the 256-deep k panel,
// and the 256-wide cache block — plus ragged tails on each.
struct GemmShape {
  std::int64_t m, n, k;
};
constexpr GemmShape kBoundaryShapes[] = {
    {1, 1, 1},     {3, 5, 7},     {4, 32, 256},  {5, 33, 257},
    {37, 61, 129}, {70, 130, 300}, {16, 300, 72}, {100, 3, 513},
};

TEST(GemmBlocked, AllLayoutsMatchDoubleReferenceAcrossTileBoundaries) {
  int idx = 0;
  for (const auto& s : kBoundaryShapes) {
    const auto seed = static_cast<std::uint64_t>(100 + 10 * idx++);
    const auto a = random_vec(s.m * s.k, seed);
    const auto b = random_vec(s.k * s.n, seed + 1);
    for (int layout = 0; layout < 3; ++layout) {
      std::vector<float> c(static_cast<std::size_t>(s.m * s.n), 0.25f);
      std::vector<float> ref = c;
      const float alpha = 1.5f, beta = 0.5f;
      switch (layout) {
        case 0:
          gemm(s.m, s.n, s.k, alpha, a.data(), b.data(), beta, c.data());
          gemm_reference(GemmRefLayout::kAB, s.m, s.n, s.k, alpha, a.data(),
                         b.data(), beta, ref.data());
          break;
        case 1:  // A is [K, M]
          gemm_at_b(s.m, s.n, s.k, alpha, a.data(), b.data(), beta, c.data());
          gemm_reference(GemmRefLayout::kAtB, s.m, s.n, s.k, alpha, a.data(),
                         b.data(), beta, ref.data());
          break;
        default:  // B is [N, K]
          gemm_a_bt(s.m, s.n, s.k, alpha, a.data(), b.data(), beta, c.data());
          gemm_reference(GemmRefLayout::kABt, s.m, s.n, s.k, alpha, a.data(),
                         b.data(), beta, ref.data());
          break;
      }
      float max_err = 0.0f;
      for (std::size_t i = 0; i < c.size(); ++i) {
        max_err = std::max(max_err, std::abs(c[i] - ref[i]));
      }
      EXPECT_LT(max_err, 1e-3f) << "shape (" << s.m << "," << s.n << ","
                                << s.k << ") layout " << layout;
    }
  }
}

TEST(GemmBlocked, BackendNameIsReported) {
  const char* name = gemm_backend_name();
  ASSERT_NE(name, nullptr);
  EXPECT_GT(std::strlen(name), 0u);
}

TEST(GemmBlocked, BitwiseIdenticalWithAndWithoutKernelParallelism) {
  // Large enough to cross the flop threshold and split into several ranges
  // on a multi-worker pool; the serial leg runs as one range. The unified
  // accumulation policy guarantees bitwise-equal output for every
  // partition.
  const std::int64_t m = 193, n = 517, k = 301;
  const auto a = random_vec(m * k, 900);
  const auto b = random_vec(k * n, 901);
  std::vector<float> c_par(static_cast<std::size_t>(m * n));
  std::vector<float> c_seq(c_par.size());
  std::vector<float> c_par2(c_par.size());

  gemm(m, n, k, 1.0f, a.data(), b.data(), 0.0f, c_par.data());
  gemm(m, n, k, 1.0f, a.data(), b.data(), 0.0f, c_par2.data());
  test::serially(
      [&] { gemm(m, n, k, 1.0f, a.data(), b.data(), 0.0f, c_seq.data()); });

  EXPECT_EQ(std::memcmp(c_par.data(), c_par2.data(),
                        c_par.size() * sizeof(float)),
            0)
      << "repeated threaded runs differ";
  EXPECT_EQ(std::memcmp(c_par.data(), c_seq.data(),
                        c_par.size() * sizeof(float)),
            0)
      << "threaded and sequential runs differ";
}

TEST(GemmBlocked, SkinnyMatricesChunkColumnsDeterministically) {
  // m = 8 gives only two 4-row tiles, so the driver chunks columns instead;
  // exercise that branch and its bitwise reproducibility.
  const std::int64_t m = 8, n = 4096, k = 200;
  const auto a = random_vec(m * k, 902);
  const auto b = random_vec(k * n, 903);
  std::vector<float> c_par(static_cast<std::size_t>(m * n));
  std::vector<float> c_seq(c_par.size());
  gemm(m, n, k, 1.0f, a.data(), b.data(), 0.0f, c_par.data());
  test::serially(
      [&] { gemm(m, n, k, 1.0f, a.data(), b.data(), 0.0f, c_seq.data()); });
  EXPECT_EQ(std::memcmp(c_par.data(), c_seq.data(),
                        c_par.size() * sizeof(float)),
            0);
}

// One of gemm / gemm_at_b / gemm_a_bt by layout index (0, 1, 2).
void gemm_by_layout(int layout, std::int64_t m, std::int64_t n,
                    std::int64_t k, const float* a, const float* b,
                    float beta, float* c) {
  switch (layout) {
    case 0:
      gemm(m, n, k, 1.0f, a, b, beta, c);
      break;
    case 1:
      gemm_at_b(m, n, k, 1.0f, a, b, beta, c);
      break;
    default:
      gemm_a_bt(m, n, k, 1.0f, a, b, beta, c);
      break;
  }
}

bool same_bits(const std::vector<float>& x, const std::vector<float>& y) {
  return x.size() == y.size() &&
         std::memcmp(x.data(), y.data(), x.size() * sizeof(float)) == 0;
}

// Random skinny shapes: at most 3 row units and 1 column unit, and K long
// enough to cross the fork point, with a partial last k-panel. On a pool
// of 2 or more workers the driver splits such a product over k-panels (the
// dW shape of a small conv layer); the serial leg runs it as one range.
// Every layout and beta 0 / 1 / 0.5 give the serial bits.
TEST(GemmBlocked, KSplitEqualsOneRange) {
  util::Rng rng(990);
  for (int trial = 0; trial < 12; ++trial) {
    const auto m = static_cast<std::int64_t>(1 + rng.uniform_index(12));
    const auto n = static_cast<std::int64_t>(8 + rng.uniform_index(120));
    const std::int64_t min_k = (std::int64_t{1} << 22) / (2 * m * n) + 1;
    const std::int64_t panels = std::max<std::int64_t>(min_k / 256 + 2, 4);
    const std::int64_t k =
        panels * 256 - static_cast<std::int64_t>(1 + rng.uniform_index(255));
    const auto a = random_vec(m * k, 1000 + trial);
    const auto b = random_vec(k * n, 2000 + trial);
    const auto c0 = random_vec(m * n, 3000 + trial);
    for (int layout = 0; layout < 3; ++layout) {
      for (const float beta : {0.0f, 1.0f, 0.5f}) {
        std::vector<float> c_pool = c0;
        std::vector<float> c_serial = c0;
        gemm_by_layout(layout, m, n, k, a.data(), b.data(), beta,
                       c_pool.data());
        test::serially([&] {
          gemm_by_layout(layout, m, n, k, a.data(), b.data(), beta,
                         c_serial.data());
        });
        EXPECT_TRUE(same_bits(c_pool, c_serial))
            << "m=" << m << " n=" << n << " k=" << k << " layout " << layout
            << " beta " << beta;
      }
    }
  }
}

// beta = 0 never reads C: over a C of NaN and -0 it gives the bits of a
// zeroed C plus the product (the memset-then-add path), on shapes that run
// as one range, split by rows, by columns and by k-panels, in the pool and
// serially.
TEST(GemmBlocked, BetaZeroOverwritesNanAndNegativeZero) {
  const GemmShape shapes[] = {
      {5, 33, 257}, {193, 517, 301}, {8, 4096, 200}, {6, 40, 9000}};
  int idx = 0;
  for (const auto& s : shapes) {
    const auto a = random_vec(s.m * s.k, 1100 + idx);
    const auto b = random_vec(s.k * s.n, 1200 + idx);
    ++idx;
    std::vector<float> dirty(static_cast<std::size_t>(s.m * s.n));
    for (std::size_t i = 0; i < dirty.size(); ++i) {
      dirty[i] = i % 2 == 0 ? std::numeric_limits<float>::quiet_NaN() : -0.0f;
    }
    for (int layout = 0; layout < 3; ++layout) {
      std::vector<float> want(dirty.size(), 0.0f);
      gemm_by_layout(layout, s.m, s.n, s.k, a.data(), b.data(), 1.0f,
                     want.data());
      std::vector<float> c_pool = dirty;
      std::vector<float> c_serial = dirty;
      gemm_by_layout(layout, s.m, s.n, s.k, a.data(), b.data(), 0.0f,
                     c_pool.data());
      test::serially([&] {
        gemm_by_layout(layout, s.m, s.n, s.k, a.data(), b.data(), 0.0f,
                       c_serial.data());
      });
      EXPECT_TRUE(same_bits(c_pool, want))
          << "shape (" << s.m << "," << s.n << "," << s.k << ") layout "
          << layout;
      EXPECT_TRUE(same_bits(c_serial, want))
          << "serial, shape (" << s.m << "," << s.n << "," << s.k
          << ") layout " << layout;
    }
  }
}

TEST(Im2ColBatched, MatchesPerSampleLowering) {
  const ConvGeometry g{3, 9, 7, 3, 2, 1};
  const std::int64_t batch = 5;
  const std::int64_t spatial = g.out_h() * g.out_w();
  const std::int64_t patch = g.patch_size();
  const std::int64_t image_size = g.in_channels * g.in_h * g.in_w;
  const auto images = random_vec(batch * image_size, 950);

  std::vector<float> batched(static_cast<std::size_t>(patch * batch * spatial));
  im2col_batched(g, images.data(), batch, batched.data());

  std::vector<float> single(static_cast<std::size_t>(patch * spatial));
  for (std::int64_t s = 0; s < batch; ++s) {
    im2col_batched(g, images.data() + s * image_size, 1, single.data());
    for (std::int64_t r = 0; r < patch; ++r) {
      for (std::int64_t i = 0; i < spatial; ++i) {
        EXPECT_EQ(batched[static_cast<std::size_t>(r * batch * spatial +
                                                   s * spatial + i)],
                  single[static_cast<std::size_t>(r * spatial + i)])
            << "sample " << s << " row " << r << " col " << i;
      }
    }
  }
}

TEST(Col2ImBatched, MatchesPerSampleScatter) {
  const ConvGeometry g{2, 8, 6, 4, 2, 1};
  const std::int64_t batch = 4;
  const std::int64_t spatial = g.out_h() * g.out_w();
  const std::int64_t patch = g.patch_size();
  const std::int64_t image_size = g.in_channels * g.in_h * g.in_w;
  const auto col = random_vec(patch * batch * spatial, 960);

  std::vector<float> batched(static_cast<std::size_t>(batch * image_size));
  col2im_batched(g, col.data(), batch, batched.data());

  for (std::int64_t s = 0; s < batch; ++s) {
    // Repack sample s's column slab into the single-sample layout.
    std::vector<float> slab(static_cast<std::size_t>(patch * spatial));
    for (std::int64_t r = 0; r < patch; ++r) {
      std::memcpy(slab.data() + r * spatial,
                  col.data() + r * batch * spatial + s * spatial,
                  static_cast<std::size_t>(spatial) * sizeof(float));
    }
    std::vector<float> image(static_cast<std::size_t>(image_size), 0.0f);
    col2im_batched(g, slab.data(), 1, image.data());
    for (std::int64_t i = 0; i < image_size; ++i) {
      EXPECT_EQ(batched[static_cast<std::size_t>(s * image_size + i)],
                image[static_cast<std::size_t>(i)])
          << "sample " << s << " element " << i;
    }
  }
}

TEST(Im2Col, StridedAndPaddedMatchesDirectIndexing) {
  // Cross-check the span-based fast path against naive per-element
  // bounds-checked indexing on an awkward geometry (stride 3, pad 2).
  const ConvGeometry g{2, 10, 11, 5, 3, 2};
  const std::int64_t spatial = g.out_h() * g.out_w();
  const auto image = random_vec(g.in_channels * g.in_h * g.in_w, 970);
  std::vector<float> col(static_cast<std::size_t>(g.patch_size() * spatial),
                         -7.0f);
  im2col_batched(g, image.data(), 1, col.data());
  std::int64_t row = 0;
  for (std::int64_t c = 0; c < g.in_channels; ++c) {
    for (std::int64_t ky = 0; ky < g.kernel; ++ky) {
      for (std::int64_t kx = 0; kx < g.kernel; ++kx, ++row) {
        for (std::int64_t y = 0; y < g.out_h(); ++y) {
          for (std::int64_t x = 0; x < g.out_w(); ++x) {
            const std::int64_t iy = y * g.stride - g.pad + ky;
            const std::int64_t ix = x * g.stride - g.pad + kx;
            const float want =
                (iy >= 0 && iy < g.in_h && ix >= 0 && ix < g.in_w)
                    ? image[static_cast<std::size_t>(
                          (c * g.in_h + iy) * g.in_w + ix)]
                    : 0.0f;
            EXPECT_EQ(col[static_cast<std::size_t>(
                          row * spatial + y * g.out_w() + x)],
                      want)
                << "row " << row << " y " << y << " x " << x;
          }
        }
      }
    }
  }
}

// col2im_batched equals a direct-index scatter, element by element in the
// same (row, y, x) order, on random geometries: stride 1-3, pad 0-2,
// kernel 1-5, several samples.
TEST(Col2ImBatched, MatchesDirectScatterOnRandomGeometries) {
  util::Rng rng(980);
  for (int trial = 0; trial < 40; ++trial) {
    ConvGeometry g;
    g.in_channels = static_cast<std::int64_t>(1 + rng.uniform_index(3));
    g.kernel = static_cast<std::int64_t>(1 + rng.uniform_index(5));
    g.stride = static_cast<std::int64_t>(1 + rng.uniform_index(3));
    g.pad = static_cast<std::int64_t>(rng.uniform_index(3));
    g.in_h = static_cast<std::int64_t>(1 + rng.uniform_index(12));
    g.in_w = static_cast<std::int64_t>(1 + rng.uniform_index(12));
    if (g.in_h + 2 * g.pad < g.kernel || g.in_w + 2 * g.pad < g.kernel) {
      continue;  // no output position
    }
    const auto batch = static_cast<std::int64_t>(1 + rng.uniform_index(5));
    const std::int64_t spatial = g.out_h() * g.out_w();
    const std::int64_t ld = batch * spatial;
    const std::int64_t image_size = g.in_channels * g.in_h * g.in_w;
    const auto col = random_vec(g.patch_size() * ld, 4000 + trial);
    const auto start = random_vec(batch * image_size, 5000 + trial);

    std::vector<float> got = start;
    col2im_batched(g, col.data(), batch, got.data());

    std::vector<float> want = start;
    for (std::int64_t s = 0; s < batch; ++s) {
      std::int64_t row = 0;
      for (std::int64_t c = 0; c < g.in_channels; ++c) {
        for (std::int64_t ky = 0; ky < g.kernel; ++ky) {
          for (std::int64_t kx = 0; kx < g.kernel; ++kx, ++row) {
            for (std::int64_t y = 0; y < g.out_h(); ++y) {
              for (std::int64_t x = 0; x < g.out_w(); ++x) {
                const std::int64_t iy = y * g.stride - g.pad + ky;
                const std::int64_t ix = x * g.stride - g.pad + kx;
                if (iy < 0 || iy >= g.in_h || ix < 0 || ix >= g.in_w) continue;
                want[static_cast<std::size_t>(s * image_size +
                                              (c * g.in_h + iy) * g.in_w +
                                              ix)] +=
                    col[static_cast<std::size_t>(row * ld + s * spatial +
                                                 y * g.out_w() + x)];
              }
            }
          }
        }
      }
    }
    EXPECT_TRUE(same_bits(got, want))
        << "C=" << g.in_channels << " H=" << g.in_h << " W=" << g.in_w
        << " k=" << g.kernel << " stride=" << g.stride << " pad=" << g.pad
        << " batch=" << batch;
  }
}

TEST(ConvGeometry, OutputSizes) {
  const ConvGeometry g{3, 28, 28, 3, 1, 1};
  EXPECT_EQ(g.out_h(), 28);
  EXPECT_EQ(g.out_w(), 28);
  EXPECT_EQ(g.patch_size(), 27);
  const ConvGeometry strided{1, 28, 28, 4, 2, 1};
  EXPECT_EQ(strided.out_h(), 14);
}

TEST(Im2Col, IdentityKernelReproducesImage) {
  // 1x1 kernel, stride 1, no padding: columns equal the image.
  const ConvGeometry g{2, 3, 3, 1, 1, 0};
  const Tensor img = random_tensor({2, 3, 3}, 12);
  std::vector<float> col(static_cast<std::size_t>(g.patch_size() * 9));
  im2col_batched(g, img.raw(), 1, col.data());
  for (std::int64_t i = 0; i < img.numel(); ++i) {
    EXPECT_FLOAT_EQ(col[static_cast<std::size_t>(i)], img[i]);
  }
}

TEST(Im2Col, PaddingProducesZeros) {
  const ConvGeometry g{1, 2, 2, 3, 1, 1};
  const Tensor img({1, 2, 2}, std::vector<float>{1, 2, 3, 4});
  std::vector<float> col(static_cast<std::size_t>(g.patch_size() *
                                                  g.out_h() * g.out_w()));
  im2col_batched(g, img.raw(), 1, col.data());
  // Kernel tap (0,0) at output (0,0) reads image(-1,-1) -> 0.
  EXPECT_FLOAT_EQ(col[0], 0.0f);
  // Center tap (1,1) at output (0,0) reads image(0,0) = 1.
  const std::int64_t spatial = g.out_h() * g.out_w();
  EXPECT_FLOAT_EQ(col[static_cast<std::size_t>(4 * spatial)], 1.0f);
}

TEST(Im2ColCol2Im, AdjointDotProductIdentity) {
  // <im2col(x), y> must equal <x, col2im(y)> since col2im = im2col^T.
  const ConvGeometry g{2, 6, 5, 3, 2, 1};
  const std::int64_t cols = g.patch_size() * g.out_h() * g.out_w();
  const Tensor x = random_tensor({2, 6, 5}, 13);
  const Tensor y = random_tensor({cols}, 14);

  std::vector<float> x_cols(static_cast<std::size_t>(cols));
  im2col_batched(g, x.raw(), 1, x_cols.data());
  double lhs = 0.0;
  for (std::int64_t i = 0; i < cols; ++i) {
    lhs += static_cast<double>(x_cols[static_cast<std::size_t>(i)]) * y[i];
  }

  Tensor x_back({2, 6, 5});
  col2im_batched(g, y.raw(), 1, x_back.raw());
  double rhs = 0.0;
  for (std::int64_t i = 0; i < x.numel(); ++i) {
    rhs += static_cast<double>(x[i]) * x_back[i];
  }
  EXPECT_NEAR(lhs, rhs, 1e-3);
}

TEST(Col2Im, AccumulatesOverlaps) {
  // 2x2 kernel, stride 1 on a 3x3 image: center pixel is covered by all
  // four windows; all-ones columns must sum to the coverage count.
  const ConvGeometry g{1, 3, 3, 2, 1, 0};
  std::vector<float> col(static_cast<std::size_t>(g.patch_size() * 4), 1.0f);
  Tensor img({1, 3, 3});
  col2im_batched(g, col.data(), 1, img.raw());
  EXPECT_FLOAT_EQ(img.at({0, 1, 1}), 4.0f);  // center: 4 windows
  EXPECT_FLOAT_EQ(img.at({0, 0, 0}), 1.0f);  // corner: 1 window
  EXPECT_FLOAT_EQ(img.at({0, 0, 1}), 2.0f);  // edge: 2 windows
}

}  // namespace
}  // namespace zka::tensor
