// Tests for the contract layer (util/check.h): ZKA_CHECK throws the
// documented exception hierarchy with the formatted context, ZKA_DCHECK
// is a no-op in release builds and aborts under ZKA_CONTRACTS, and the
// tensor accessors enforce their bounds contracts.

#include "util/check.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "tensor/tensor.h"

namespace zka {
namespace {

TEST(Check, PassingCheckIsSilent) {
  EXPECT_NO_THROW(ZKA_CHECK(1 + 1 == 2));
  EXPECT_NO_THROW(ZKA_CHECK(true, "context %d", 7));
}

TEST(Check, FailingCheckThrowsContractViolation) {
  EXPECT_THROW(ZKA_CHECK(false), util::ContractViolation);
}

TEST(Check, ContractViolationDerivesFromInvalidArgument) {
  // Pre-contract code threw std::invalid_argument / std::logic_error;
  // callers catching either must keep working.
  EXPECT_THROW(ZKA_CHECK(false), std::invalid_argument);
  EXPECT_THROW(ZKA_CHECK(false), std::logic_error);
}

TEST(Check, MessageCarriesConditionAndContext) {
  try {
    const int n = 3;
    const int f = 5;
    ZKA_CHECK(f < n, "Krum: f=%d must be < n=%d", f, n);
    FAIL() << "ZKA_CHECK did not throw";
  } catch (const util::ContractViolation& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("f < n"), std::string::npos) << what;
    EXPECT_NE(what.find("Krum: f=5 must be < n=3"), std::string::npos) << what;
  }
}

TEST(Check, MessageWithoutContextStillNamesCondition) {
  try {
    ZKA_CHECK(2 < 1);
    FAIL() << "ZKA_CHECK did not throw";
  } catch (const util::ContractViolation& e) {
    EXPECT_NE(std::string(e.what()).find("2 < 1"), std::string::npos);
  }
}

TEST(Check, ConditionIsEvaluatedExactlyOnce) {
  int calls = 0;
  ZKA_CHECK([&] {
    ++calls;
    return true;
  }());
  EXPECT_EQ(calls, 1);
}

TEST(CheckShape, EqualShapesPass) {
  const std::vector<std::int64_t> a{2, 3};
  const std::vector<std::int64_t> b{2, 3};
  EXPECT_NO_THROW(ZKA_CHECK_SHAPE(a, b));
}

TEST(CheckShape, MismatchFormatsBothShapes) {
  const std::vector<std::int64_t> a{2, 3};
  const std::vector<std::int64_t> b{4};
  try {
    ZKA_CHECK_SHAPE(a, b, "conv2d input");
    FAIL() << "ZKA_CHECK_SHAPE did not throw";
  } catch (const util::ContractViolation& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("[2, 3] vs [4]"), std::string::npos) << what;
    EXPECT_NE(what.find("conv2d input"), std::string::npos) << what;
  }
}

TEST(Dcheck, PassingDcheckIsSilent) {
  EXPECT_NO_THROW(ZKA_DCHECK(true, "never printed"));
}

TEST(Dcheck, ConditionCompilesButOnlyFiresWithContracts) {
  // The condition expression stays compiled either way (so it cannot
  // bit-rot), but without ZKA_CONTRACTS a false condition is a no-op.
  if constexpr (!util::kContractsEnabled) {
    EXPECT_NO_THROW(ZKA_DCHECK(false, "release build: must not fire"));
  } else {
    EXPECT_DEATH(ZKA_DCHECK(false, "contract build: fires %d", 1),
                 "ZKA_DCHECK");
  }
}

#ifdef ZKA_CONTRACTS
TEST(DcheckDeathTest, AbortMessageCarriesContext) {
  EXPECT_DEATH(ZKA_DCHECK(1 > 2, "ctx value %d", 42), "ctx value 42");
}

TEST(TensorContractsDeathTest, FlatIndexOutOfBounds) {
  tensor::Tensor t({2, 3});
  EXPECT_DEATH((void)t[6], "flat index 6");
  EXPECT_DEATH((void)t[-1], "flat index -1");
}

TEST(TensorContractsDeathTest, AtAxisOutOfBounds) {
  tensor::Tensor t({2, 3});
  EXPECT_DEATH((void)t.at({0, 3}), "axis 1");
  EXPECT_DEATH((void)t.at({2, 0}), "axis 0");
}

TEST(TensorContractsDeathTest, AtRankMismatch) {
  tensor::Tensor t({2, 3});
  EXPECT_DEATH((void)t.at({0}), "rank");
}
#endif  // ZKA_CONTRACTS

// The shape-changing accessors are always-on checks (cold path), so the
// bad-argument behavior is identical in every build mode.
TEST(TensorContracts, BadIndexSelect0Throws) {
  const tensor::Tensor t({4, 2});
  const std::vector<std::int64_t> past_end{4};
  const std::vector<std::int64_t> negative{-1};
  EXPECT_THROW((void)t.index_select0(past_end), std::out_of_range);
  EXPECT_THROW((void)t.index_select0(negative), std::out_of_range);
}

}  // namespace
}  // namespace zka
