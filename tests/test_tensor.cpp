#include "tensor/tensor.h"

#include <gtest/gtest.h>

#include <cmath>

#include "util/rng.h"

namespace zka::tensor {
namespace {

TEST(Shape, NumelAndString) {
  EXPECT_EQ(shape_numel({2, 3, 4}), 24);
  EXPECT_EQ(shape_numel({}), 1);
  EXPECT_EQ(shape_numel({0, 5}), 0);
  EXPECT_THROW(shape_numel({-1, 2}), std::invalid_argument);
  EXPECT_EQ(shape_to_string({2, 3}), "[2, 3]");
}

TEST(Tensor, ConstructionAndFill) {
  Tensor t({2, 3});
  EXPECT_EQ(t.numel(), 6);
  EXPECT_EQ(t.rank(), 2u);
  EXPECT_EQ(t.dim(0), 2);
  EXPECT_EQ(t.dim(1), 3);
  for (std::int64_t i = 0; i < 6; ++i) EXPECT_FLOAT_EQ(t[i], 0.0f);
  Tensor f({2, 2}, 3.5f);
  EXPECT_FLOAT_EQ(f[3], 3.5f);
  f.fill(-1.0f);
  EXPECT_FLOAT_EQ(f[0], -1.0f);
}

TEST(Tensor, DataVectorConstructorValidatesSize) {
  EXPECT_NO_THROW(Tensor({2, 2}, std::vector<float>{1, 2, 3, 4}));
  EXPECT_THROW(Tensor({2, 2}, std::vector<float>{1, 2, 3}),
               std::invalid_argument);
}

TEST(Tensor, MultiIndexAccessRowMajor) {
  Tensor t({2, 3}, std::vector<float>{0, 1, 2, 3, 4, 5});
  EXPECT_FLOAT_EQ(t.at({0, 0}), 0.0f);
  EXPECT_FLOAT_EQ(t.at({0, 2}), 2.0f);
  EXPECT_FLOAT_EQ(t.at({1, 0}), 3.0f);
  t.at({1, 2}) = 42.0f;
  EXPECT_FLOAT_EQ(t[5], 42.0f);
}

TEST(Tensor, IndexSelect0) {
  Tensor t({3, 2}, std::vector<float>{0, 1, 2, 3, 4, 5});
  const std::vector<std::int64_t> idx{2, 0, 2};
  const Tensor s = t.index_select0(idx);
  EXPECT_EQ(s.dim(0), 3);
  EXPECT_FLOAT_EQ(s[0], 4.0f);
  EXPECT_FLOAT_EQ(s[2], 0.0f);
  EXPECT_FLOAT_EQ(s[4], 4.0f);
  const std::vector<std::int64_t> bad{3};
  EXPECT_THROW(t.index_select0(bad), std::out_of_range);
}

TEST(Tensor, ElementwiseArithmetic) {
  Tensor a({2}, std::vector<float>{1, 2});
  Tensor b({2}, std::vector<float>{3, 5});
  const Tensor sum = a + b;
  EXPECT_FLOAT_EQ(sum[0], 4.0f);
  const Tensor diff = b - a;
  EXPECT_FLOAT_EQ(diff[1], 3.0f);
  const Tensor prod = a * b;
  EXPECT_FLOAT_EQ(prod[1], 10.0f);
  const Tensor scaled = a * 2.0f;
  EXPECT_FLOAT_EQ(scaled[1], 4.0f);
  const Tensor scaled2 = 3.0f * a;
  EXPECT_FLOAT_EQ(scaled2[0], 3.0f);
  a += 1.0f;
  EXPECT_FLOAT_EQ(a[0], 2.0f);
}

TEST(Tensor, ShapeMismatchThrows) {
  Tensor a({2});
  Tensor b({3});
  EXPECT_THROW(a += b, std::invalid_argument);
  EXPECT_THROW(a -= b, std::invalid_argument);
  EXPECT_THROW(a *= b, std::invalid_argument);
}

TEST(Tensor, Reductions) {
  Tensor t({4}, std::vector<float>{-1, 2, 7, 0});
  EXPECT_FLOAT_EQ(t.sum(), 8.0f);
  EXPECT_FLOAT_EQ(t.mean(), 2.0f);
  EXPECT_FLOAT_EQ(t.min(), -1.0f);
  EXPECT_FLOAT_EQ(t.max(), 7.0f);
  EXPECT_EQ(t.argmax(), 2);
  EXPECT_NEAR(t.l2_norm(), std::sqrt(1.0 + 4.0 + 49.0), 1e-6);
}

TEST(Tensor, UniformFillWithinBounds) {
  util::Rng rng(5);
  const Tensor t = Tensor::uniform({100}, rng, -2.0f, 3.0f);
  for (std::int64_t i = 0; i < t.numel(); ++i) {
    EXPECT_GE(t[i], -2.0f);
    EXPECT_LT(t[i], 3.0f);
  }
}

TEST(Tensor, NormalFillHasApproxMoments) {
  util::Rng rng(6);
  const Tensor t = Tensor::normal({10000}, rng, 1.0f, 2.0f);
  EXPECT_NEAR(t.mean(), 1.0f, 0.1f);
}

TEST(Tensor, Allclose) {
  Tensor a({2}, std::vector<float>{1.0f, 2.0f});
  Tensor b({2}, std::vector<float>{1.0f + 1e-6f, 2.0f});
  Tensor c({2}, std::vector<float>{1.1f, 2.0f});
  EXPECT_TRUE(allclose(a, b));
  EXPECT_FALSE(allclose(a, c));
  EXPECT_FALSE(allclose(a, Tensor({3})));
}

TEST(Tensor, EmptyReductionsThrow) {
  Tensor empty;
  EXPECT_THROW(empty.min(), std::logic_error);
  EXPECT_THROW(empty.max(), std::logic_error);
  EXPECT_THROW(empty.argmax(), std::logic_error);
}

}  // namespace
}  // namespace zka::tensor
