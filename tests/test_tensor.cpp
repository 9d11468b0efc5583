#include "tensor/tensor.h"

#include <gtest/gtest.h>

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

TEST(Tensor, MaxAndArgmax) {
  Tensor t({5}, std::vector<float>{-1, 7, 2, 7, 0});
  EXPECT_FLOAT_EQ(t.max(), 7.0f);
  EXPECT_EQ(t.argmax(), 1);  // first on ties
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
  double sum = 0.0;
  for (const float x : t.data()) sum += x;
  EXPECT_NEAR(sum / static_cast<double>(t.numel()), 1.0, 0.1);
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
  EXPECT_THROW(empty.max(), std::logic_error);
  EXPECT_THROW(empty.argmax(), std::logic_error);
}

}  // namespace
}  // namespace zka::tensor
