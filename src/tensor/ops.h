// Dense kernels backing the NN layers: GEMM and im2col/col2im lowering for
// (transposed) convolutions.
//
// ## Accumulation policy (unified across all GEMM variants)
//
// Every GEMM kernel accumulates in float32 (binary32) registers, never in
// double. The cache-blocked implementation fixes the association order of
// the additions: the k dimension is walked in KC=256 panels, ascending;
// within a panel each MRxNR register tile accumulates p = 0..kc-1 in order
// from zero, and the panel's sum is then added into C (c += acc). With
// beta = 0 the first panel writes c = 0.0f + acc instead, the bits the add
// gives on a zeroed C, so C is never cleared first and its old contents
// (NaN included) are never read.
// Consequences:
//   * gemm / gemm_at_b / gemm_a_bt round identically for the same logical
//     product, so weight gradients and input gradients see one rounding
//     policy (the seed kernels mixed float and double accumulation);
//   * results are bitwise identical run-to-run and independent of both the
//     thread count and the parallel partition (no atomics anywhere in the
//     accumulation path);
//   * results may differ across ISA tiers (FMA contracts one rounding step)
//     and from the seed kernels (different association order) by normal
//     float32 epsilon. On any given machine the selected tier is fixed, so
//     this never affects reproducibility of a run.
//
// ## Threading
//
// Large GEMMs are split over the process-wide util::global_thread_pool()
// when the pool's fork rule (ThreadPool::fork_width) says so, in one of two
// ways, both of which keep every element's additions in the order above:
//   * into disjoint row or column ranges aligned to the blocking scheme,
//     when C has at least as many register-tile rows or cache-block columns
//     as the split wants ranges (two per worker) or as K has panels;
//   * otherwise, as for a weight gradient (C small, K = batch x spatial
//     long), into ranges of k-panels. Each panel stores its tile sums into
//     its own slot (slot = acc, never added onto anything), and the calling
//     thread then folds the slots into C in ascending panel order: c += slot
//     (c = 0.0f + slot for the first when beta = 0), which is the sequence of
//     additions one range makes. The slots stay below 4 MiB per calling
//     thread; a product that would need more splits by rows or columns.
// A kernel nested in a pool task (e.g. inside an FL client wave) runs as
// one range on its thread, and so does every kernel called from inside a
// one-index parallel_for: that is how a caller gets a serial run.
//
// im2col/col2im split over samples (disjoint column slabs and images).
// col2im adds each column into its image element in (row, y, x) order
// whatever the stride; stride 1 runs as contiguous adds.
#pragma once

#include <cstdint>
#include <span>

#include "tensor/tensor.h"

namespace zka::tensor {

/// Name of the GEMM backend selected for this CPU at startup:
/// "avx512f", "avx2+fma", or "generic".
const char* gemm_backend_name() noexcept;

/// C[M,N] = alpha * A[M,K] @ B[K,N] + beta * C. Row-major raw buffers.
void gemm(std::int64_t m, std::int64_t n, std::int64_t k, float alpha,
          const float* a, const float* b, float beta, float* c) noexcept;

/// C[M,N] += A^T where A is [K,M] times B [K,N]  (i.e. C = alpha*Aᵀ@B + beta*C).
void gemm_at_b(std::int64_t m, std::int64_t n, std::int64_t k, float alpha,
               const float* a, const float* b, float beta, float* c) noexcept;

/// C[M,N] = alpha * A[M,K] @ Bᵀ where B is [N,K], plus beta*C.
void gemm_a_bt(std::int64_t m, std::int64_t n, std::int64_t k, float alpha,
               const float* a, const float* b, float beta, float* c) noexcept;

/// Convolution geometry (square kernels, symmetric padding/stride).
struct ConvGeometry {
  std::int64_t in_channels = 0;
  std::int64_t in_h = 0;
  std::int64_t in_w = 0;
  std::int64_t kernel = 0;
  std::int64_t stride = 1;
  std::int64_t pad = 0;

  std::int64_t out_h() const noexcept {
    return (in_h + 2 * pad - kernel) / stride + 1;
  }
  std::int64_t out_w() const noexcept {
    return (in_w + 2 * pad - kernel) / stride + 1;
  }
  std::int64_t patch_size() const noexcept {
    return in_channels * kernel * kernel;
  }
};

/// Batched im2col: lowers `batch` images (contiguous [N,C,H,W]) into one
/// column matrix [C*K*K, N * OH*OW], sample s occupying the column slab
/// [s*OH*OW, (s+1)*OH*OW); out-of-image taps are zero. A convolution over
/// the whole batch is then a single GEMM against this matrix instead of N
/// small ones. `col` must hold patch_size() * batch * out_h() * out_w()
/// floats. Parallelised over samples (disjoint writes, deterministic).
void im2col_batched(const ConvGeometry& g, const float* images,
                    std::int64_t batch, float* col) noexcept;

/// Adjoint of im2col_batched: accumulates the [C*K*K, N*OH*OW] column
/// matrix back into `batch` images (contributions are added; zero `images`
/// first for a fresh result). Parallelised over samples.
void col2im_batched(const ConvGeometry& g, const float* col,
                    std::int64_t batch, float* images) noexcept;

}  // namespace zka::tensor
