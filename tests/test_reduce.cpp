#include "tensor/reduce.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <span>
#include <vector>

#include "serially.h"
#include "tensor/ops.h"
#include "util/rng.h"

namespace zka::tensor {
namespace {

std::vector<float> random_vec(std::size_t n, std::uint64_t seed,
                              double scale = 1.0) {
  util::Rng rng(seed);
  std::vector<float> v(n);
  for (auto& x : v) x = static_cast<float>(rng.normal(0.0, scale));
  return v;
}

// Sequential double reference; the lane-split kernels must match it to
// normal double round-off (identical tail handling keeps small sizes exact).
double ref_dot(const std::vector<float>& a, const std::vector<float>& b) {
  double acc = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    acc += static_cast<double>(a[i]) * static_cast<double>(b[i]);
  }
  return acc;
}

TEST(Reduce, BackendIsSelected) {
  EXPECT_STREQ(reduce_backend_name(), gemm_backend_name());
}

TEST(Reduce, DotMatchesReferenceAcrossSizes) {
  // Cover the lane loop, the tail, and the tail-only path.
  for (const std::size_t n : {std::size_t{1}, std::size_t{15}, std::size_t{16},
                              std::size_t{17}, std::size_t{1000},
                              std::size_t{4096}, std::size_t{100003}}) {
    const auto a = random_vec(n, 11 + n);
    const auto b = random_vec(n, 17 + n);
    const double ref = ref_dot(a, b);
    EXPECT_NEAR(dot(a, b), ref, 1e-12 * (std::abs(ref) + n)) << "n=" << n;
  }
}

TEST(Reduce, DoubleDotMatchesReference) {
  const std::size_t n = 10007;
  util::Rng rng(3);
  std::vector<double> a(n);
  std::vector<double> b(n);
  for (std::size_t i = 0; i < n; ++i) {
    a[i] = rng.normal(0.0, 1.0);
    b[i] = rng.normal(0.0, 1.0);
  }
  double ref = 0.0;
  for (std::size_t i = 0; i < n; ++i) ref += a[i] * b[i];
  EXPECT_NEAR(dot(std::span<const double>(a), std::span<const double>(b)), ref,
              1e-10 * n);
}

TEST(Reduce, SquaredNormAndDistance) {
  const std::size_t n = 5000;
  const auto a = random_vec(n, 5);
  const auto b = random_vec(n, 6);
  double ref_n = 0.0;
  double ref_d = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    ref_n += static_cast<double>(a[i]) * a[i];
    const double diff = static_cast<double>(a[i]) - b[i];
    ref_d += diff * diff;
  }
  EXPECT_NEAR(squared_norm(a), ref_n, 1e-10 * ref_n);
  EXPECT_NEAR(squared_distance(a, b), ref_d, 1e-10 * ref_d);
  EXPECT_DOUBLE_EQ(squared_distance(a, a), 0.0);
}

TEST(Reduce, MixedPrecisionDistanceMatchesDoubleIterate) {
  const std::size_t n = 3000;
  const auto a = random_vec(n, 7);
  std::vector<double> center(n);
  util::Rng rng(8);
  for (auto& c : center) c = rng.normal(0.0, 1.0);
  double ref = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double diff = static_cast<double>(a[i]) - center[i];
    ref += diff * diff;
  }
  EXPECT_NEAR(squared_distance(a, std::span<const double>(center)), ref,
              1e-10 * ref);
}

TEST(Reduce, AxpyAccumulates) {
  const std::size_t n = 2049;
  const auto x = random_vec(n, 9);
  std::vector<double> y(n, 0.5);
  std::vector<double> ref = y;
  axpy(2.5, x, y);
  for (std::size_t i = 0; i < n; ++i) ref[i] += 2.5 * x[i];
  EXPECT_EQ(y, ref);  // elementwise FMA-or-not is the only wiggle room
}

TEST(Reduce, WeightedSumMatchesReference) {
  const std::size_t n = 7;
  const std::size_t dim = 9001;
  std::vector<std::vector<float>> rows;
  std::vector<std::span<const float>> views;
  std::vector<double> coeffs;
  for (std::size_t k = 0; k < n; ++k) {
    rows.push_back(random_vec(dim, 100 + k));
    coeffs.push_back(0.1 * static_cast<double>(k + 1));
  }
  for (const auto& r : rows) views.emplace_back(r);
  std::vector<double> out(dim);
  weighted_sum(views, coeffs, out);
  for (const std::size_t i : {std::size_t{0}, std::size_t{4096},
                              std::size_t{dim - 1}}) {
    double ref = 0.0;
    for (std::size_t k = 0; k < n; ++k) {
      ref += coeffs[k] * static_cast<double>(rows[k][i]);
    }
    EXPECT_NEAR(out[i], ref, 1e-12 * (std::abs(ref) + 1.0)) << i;
  }
}

TEST(Reduce, WeightedSumIsThreadCountInvariant) {
  // The parallel split must not change the result: compare pool execution
  // against a serial run bit for bit.
  const std::size_t n = 12;
  const std::size_t dim = 50000;  // over the parallel threshold
  std::vector<std::vector<float>> rows;
  std::vector<std::span<const float>> views;
  std::vector<double> coeffs;
  for (std::size_t k = 0; k < n; ++k) {
    rows.push_back(random_vec(dim, 200 + k));
    coeffs.push_back(1.0 / static_cast<double>(k + 1));
  }
  for (const auto& r : rows) views.emplace_back(r);
  std::vector<double> parallel_out(dim);
  weighted_sum(views, coeffs, parallel_out);
  std::vector<double> serial_out(dim);
  test::serially([&] { weighted_sum(views, coeffs, serial_out); });
  EXPECT_EQ(parallel_out, serial_out);
}

TEST(Reduce, SortColumnsSortsEveryColumn) {
  // Odd, non-multiple-of-vector-width tile; 11 real rows padded to 16
  // with +inf, the caller-side contract of for_each_sorted_coordinate.
  const std::size_t real_rows = 11;
  const std::size_t rows = 16;
  const std::size_t width = 37;
  std::vector<float> tile(rows * width,
                          std::numeric_limits<float>::infinity());
  util::Rng rng(77);
  for (std::size_t r = 0; r < real_rows; ++r) {
    for (std::size_t c = 0; c < width; ++c) {
      tile[r * width + c] = static_cast<float>(rng.normal(0.0, 1.0));
    }
  }
  std::vector<float> original = tile;
  sort_columns(tile.data(), rows, width);
  for (std::size_t c = 0; c < width; ++c) {
    std::vector<float> column;
    std::vector<float> expected;
    for (std::size_t r = 0; r < rows; ++r) {
      column.push_back(tile[r * width + c]);
      expected.push_back(original[r * width + c]);
    }
    std::sort(expected.begin(), expected.end());
    // Ascending, same multiset, padding at the bottom.
    EXPECT_EQ(column, expected) << "column " << c;
    EXPECT_TRUE(std::isinf(column[real_rows])) << "column " << c;
  }
}

TEST(Reduce, GramMatrixMatchesPairwiseDots) {
  const std::size_t n = 10;
  const std::size_t dim = 513;
  std::vector<std::vector<float>> rows;
  std::vector<std::span<const float>> views;
  for (std::size_t k = 0; k < n; ++k) rows.push_back(random_vec(dim, 300 + k));
  for (const auto& r : rows) views.emplace_back(r);
  std::vector<float> gram(n * n);
  std::vector<double> sqnorms(n);
  gram_matrix(views, gram, sqnorms);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(sqnorms[i], ref_dot(rows[i], rows[i]), 1e-8 * dim) << i;
    for (std::size_t j = 0; j < n; ++j) {
      const double ref = ref_dot(rows[i], rows[j]);
      // float32 GEMM accumulation: relative tolerance scaled by the norms.
      const double tol =
          1e-5 * std::sqrt(sqnorms[i] * sqnorms[j]) + 1e-6;
      EXPECT_NEAR(gram[i * n + j], ref, tol) << i << "," << j;
      EXPECT_FLOAT_EQ(gram[i * n + j], gram[j * n + i]);
    }
  }
}

}  // namespace
}  // namespace zka::tensor
