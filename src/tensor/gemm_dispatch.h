// Internal header: ISA dispatch for the blocked GEMM kernels.
//
// The kernel implementation lives in gemm_kernels.inl and is compiled once
// per instruction-set tier (generic / AVX2+FMA / AVX-512F) into separate
// translation units, each wrapping the identical code in its own namespace.
// ops.cpp picks the widest tier the *running* CPU supports at startup, so a
// single portable binary gets native-width SIMD without -march=native.
//
// All tiers share one blocking scheme (MR=4 x NR=32 register tile, KC=256
// k-panel, NC=256 column panel) and one accumulation policy (see ops.h), so
// they differ only in vector width, never in the association order of the
// float additions within a tile. Results are still ISA-dependent (an FMA
// contracts the intermediate rounding) but run-to-run and thread-count
// invariant on any given machine.
#pragma once

#include <cstdint>

namespace zka::tensor::detail {

/// Operand layout of the C[M,N] = alpha * op(A) @ op(B) + beta * C kernels.
enum class GemmLayout {
  kAB,   // A is [M,K] row-major, B is [K,N] row-major
  kAtB,  // A is [K,M] (transposed), B is [K,N]
  kABt,  // A is [M,K], B is [N,K] (transposed)
};

// Register/cache blocking parameters, shared by every tier and by the
// chunking logic in ops.cpp (chunk boundaries must align to these).
inline constexpr std::int64_t kGemmMR = 4;    // rows per register tile
inline constexpr std::int64_t kGemmNR = 32;   // cols per register tile
inline constexpr std::int64_t kGemmKC = 256;  // k extent of a packed panel
inline constexpr std::int64_t kGemmNC = 256;  // column extent of an L2 block

/// How a gemm_ranges call writes each register tile's panel sum `acc`.
enum class GemmWrite {
  kAdd,    // c += acc on every panel; C already holds beta * C
  kBeta0,  // panel 0 writes c = 0.0f + acc (the bits `c += acc` gives on a
           // zeroed C, C's old bits unread); later panels add
  kSlots,  // panel q writes slot q - p0 = acc, slot j being the [m, n]
           // block at c + j * m * n; the caller folds the slots into C
};

/// Computes the rows [r0, r1) x cols [c0, c1) sub-block of
/// C = alpha * op(A) @ op(B) + C over the k-panels [p0, p1) (panel q covers
/// k in [q * kGemmKC, min(k, (q + 1) * kGemmKC))), written as `write`
/// says. r0 must be a multiple of kGemmMR and c0 a multiple of kGemmNC, so
/// that any chunked partition tiles C exactly like a single full-range call.
using GemmRangesFn = void (*)(GemmLayout layout, std::int64_t m,
                              std::int64_t n, std::int64_t k, float alpha,
                              const float* a, const float* b, float* c,
                              std::int64_t r0, std::int64_t r1,
                              std::int64_t c0, std::int64_t c1,
                              std::int64_t p0, std::int64_t p1,
                              GemmWrite write);

#define ZKA_GEMM_RANGES_DECL                                                 \
  void gemm_ranges(GemmLayout layout, std::int64_t m, std::int64_t n,        \
                   std::int64_t k, float alpha, const float* a,              \
                   const float* b, float* c, std::int64_t r0,                \
                   std::int64_t r1, std::int64_t c0, std::int64_t c1,        \
                   std::int64_t p0, std::int64_t p1, GemmWrite write)

namespace generic {
ZKA_GEMM_RANGES_DECL;
}

#if defined(ZKA_GEMM_AVX2)
namespace avx2 {
ZKA_GEMM_RANGES_DECL;
}
#endif

#if defined(ZKA_GEMM_AVX512)
namespace avx512 {
ZKA_GEMM_RANGES_DECL;
}
#endif

#undef ZKA_GEMM_RANGES_DECL

}  // namespace zka::tensor::detail
