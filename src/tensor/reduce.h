// SIMD reduction toolkit shared by the server-side aggregation pipeline
// (defenses), the analysis layer and anything else that folds long flat
// vectors: dot products, squared norms/distances, scaled accumulation and
// deterministic weighted sums, with the same generic/AVX2/AVX-512 runtime
// dispatch as the GEMM in ops.h.
//
// ## Accumulation-order policy (shared by every reduction)
//
// Reductions accumulate in double precision (binary64) — unlike the GEMM,
// whose float32 policy suits gradient math, the defenses rank and compare
// sums over ~1e5 coordinates, where float32 accumulation would perturb
// Krum/Bulyan orderings. The association order is fixed: 16 independent
// accumulator lanes fed stride-16 (element i of the main body feeds lane
// i % 16), lanes combined lane-ascending, the n % 16 tail appended
// index-ascending. Consequences:
//   * results are bitwise identical run-to-run on a given machine, and
//     independent of thread count — the kernels themselves never fork, and
//     the parallel helpers below split work into fixed blocks whose
//     partials combine in block order, never in completion order;
//   * results may differ across ISA tiers (FMA contracts one rounding
//     step) by normal double epsilon, exactly like the GEMM tiers. The
//     selected tier is fixed per machine, so reproducibility of a run is
//     unaffected;
//   * axpy-style (elementwise) kernels carry one accumulator per output
//     element and are association-free by construction.
//
// ## Threading
//
// Single-vector reductions run on the calling thread: the defense layer
// parallelizes at row/coordinate-block granularity where splits stay
// deterministic for free. The helpers that do fork (weighted_sum,
// gram_matrix via the GEMM) fork by the pool's rule (ThreadPool::
// fork_width) and split along fixed block boundaries, so any ZKA_THREADS
// yields bitwise-equal output.
#pragma once

#include <cstddef>
#include <span>

namespace zka::tensor {

/// Name of the reduction backend selected for this CPU at startup:
/// "avx512f", "avx2+fma", or "generic". Matches gemm_backend_name() on
/// every supported CPU (both probe the same features).
const char* reduce_backend_name() noexcept;

/// Dot product, double accumulation. Spans must have equal size.
double dot(std::span<const float> a, std::span<const float> b) noexcept;
double dot(std::span<const double> a, std::span<const double> b) noexcept;

/// Sum of squares, double accumulation.
double squared_norm(std::span<const float> a) noexcept;

/// Squared Euclidean distance; the float/double overload measures float
/// data against a double iterate (Weiszfeld center, running means).
double squared_distance(std::span<const float> a,
                        std::span<const float> b) noexcept;
double squared_distance(std::span<const float> a,
                        std::span<const double> b) noexcept;
double squared_distance(std::span<const double> a,
                        std::span<const double> b) noexcept;

/// y += alpha * x (scaled accumulate). Spans must have equal size.
void axpy(double alpha, std::span<const float> x,
          std::span<double> y) noexcept;
void axpy(double alpha, std::span<const double> x,
          std::span<double> y) noexcept;

/// y[i] += x[i] * s[i], elementwise (one accumulator per output element,
/// association-free). The inner fold of the JL sign-sketch (see sketch.h),
/// where `s` is a ±1 pattern. Spans must have equal size.
void fmadd(std::span<const float> x, std::span<const float> s,
           std::span<double> y) noexcept;

/// out[i] = sum_k coeffs[k] * rows[k][i], accumulated k-ascending per
/// coordinate in double. Parallelized over fixed coordinate blocks (the
/// k-order inside a block never changes), so the result is bitwise
/// identical for any thread count. All rows and `out` must share one size;
/// `coeffs` must have one entry per row. `out` is overwritten.
void weighted_sum(std::span<const std::span<const float>> rows,
                  std::span<const double> coeffs, std::span<double> out);

/// Gram matrix of n equally sized rows: gram[i*n+j] = <rows[i], rows[j]>
/// accumulated in float32 by the packed GEMM (G = A Aᵀ), plus exact
/// double-accumulated squared norms per row in sqnorms. The float Gram is
/// what makes O(n²·d) pairwise geometry one cache-blocked GEMM; callers
/// that need double-accurate small distances apply a correction pass on
/// top (see defense/distance.h). gram must hold n*n floats, sqnorms n
/// doubles. Deterministic for any thread count (inherits the GEMM and
/// fixed-block guarantees).
void gram_matrix(std::span<const std::span<const float>> rows,
                 std::span<float> gram, std::span<double> sqnorms);

/// Sorts every column of a row-major [rows × width] tile ascending, in
/// place, using a Batcher odd-even merge network whose comparators are
/// elementwise min/max sweeps across row pairs (full SIMD width, every
/// column at once). `rows` must be a power of two — callers pad short
/// tiles with +inf, which sorts past the real values. Data-oblivious: the
/// comparator sequence is a pure function of `rows`, so the result never
/// depends on execution order. Runs on the calling thread (callers
/// parallelize over tiles).
void sort_columns(float* tile, std::size_t rows, std::size_t width);

}  // namespace zka::tensor
