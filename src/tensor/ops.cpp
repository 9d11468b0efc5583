#include "tensor/ops.h"

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "tensor/gemm_dispatch.h"
#include "util/check.h"
#include "util/prof.h"
#include "util/thread_pool.h"

namespace zka::tensor {
namespace {

using detail::GemmLayout;
using detail::GemmWrite;
using detail::kGemmKC;
using detail::kGemmMR;
using detail::kGemmNC;

// GEMM's fork point in flops (2*m*n*k): below it the fork/join handshake
// costs more than the multiply.
constexpr std::size_t kGemmForkFlops = std::size_t{1} << 22;

struct Backend {
  detail::GemmRangesFn ranges;
  const char* name;
  /// Prof counter bumped once per gemm_driver call; fixed at startup, so
  /// ZKA_PROF_COUNT's per-call-site cell caching is sound.
  const char* tier_counter;
};

Backend select_backend() {
#if defined(__x86_64__) && defined(__GNUC__)
#if defined(ZKA_GEMM_AVX512)
  if (__builtin_cpu_supports("avx512f")) {
    return {&detail::avx512::gemm_ranges, "avx512f", "gemm/tier/avx512f"};
  }
#endif
#if defined(ZKA_GEMM_AVX2)
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) {
    return {&detail::avx2::gemm_ranges, "avx2+fma", "gemm/tier/avx2+fma"};
  }
#endif
#endif
  return {&detail::generic::gemm_ranges, "generic", "gemm/tier/generic"};
}

const Backend& backend() {
  static const Backend b = select_backend();
  return b;
}

// Upper bound on the K split's panel slots, in floats (4 MiB). A product
// whose slots would not fit splits over rows or columns instead.
constexpr std::int64_t kGemmSlotFloats = std::int64_t{1} << 20;

// Shared driver: C = alpha*op(A)@op(B) + beta*C, split across the pool when
// the pool's fork rule says so. Ranges cut C into disjoint row groups
// (multiples of the register-tile height) or column groups (multiples of
// the cache-block width), or, when C has too few of those to go round and
// K has more panels, cut K into panel groups that each store their panels'
// tiles into their own slots, which are then folded into C in ascending
// panel order. Every partition performs bitwise-identical tile
// computations and additions — see ops.h.
void gemm_driver(GemmLayout layout, std::int64_t m, std::int64_t n,
                 std::int64_t k, float alpha, const float* a, const float* b,
                 float beta, float* c) {
  ZKA_DCHECK(m >= 0 && n >= 0 && k >= 0, "gemm sizes m=%lld n=%lld k=%lld",
             static_cast<long long>(m), static_cast<long long>(n),
             static_cast<long long>(k));
  ZKA_DCHECK(m * n == 0 || c != nullptr, "gemm: null C for %lldx%lld output",
             static_cast<long long>(m), static_cast<long long>(n));
  ZKA_DCHECK(m * n * k == 0 || (a != nullptr && b != nullptr),
             "gemm: null operand for nonempty product");
  if (m <= 0 || n <= 0) return;
  ZKA_PROF_COUNT("gemm/calls", 1);
  ZKA_PROF_COUNT("gemm/flops", 2 * m * n * k);
  ZKA_PROF_COUNT("gemm/bytes",
                 static_cast<std::int64_t>(sizeof(float)) *
                     (m * k + k * n + 2 * m * n));
  ZKA_PROF_COUNT(backend().tier_counter, 1);
  const std::int64_t mn = m * n;
  if (alpha == 0.0f || k <= 0) {
    if (beta == 0.0f) {
      std::memset(c, 0, static_cast<std::size_t>(mn) * sizeof(float));
    } else if (beta != 1.0f) {
      for (std::int64_t i = 0; i < mn; ++i) c[i] *= beta;
    }
    return;
  }
  // beta 0 needs no pass over C: the first panel writes 0.0f + acc.
  if (beta != 0.0f && beta != 1.0f) {
    for (std::int64_t i = 0; i < mn; ++i) c[i] *= beta;
  }
  const GemmWrite write = beta == 0.0f ? GemmWrite::kBeta0 : GemmWrite::kAdd;

  const detail::GemmRangesFn ranges = backend().ranges;
  const std::int64_t panels = (k + kGemmKC - 1) / kGemmKC;
  const std::int64_t row_units = (m + kGemmMR - 1) / kGemmMR;
  const std::int64_t col_units = (n + kGemmNC - 1) / kGemmNC;
  const bool by_rows = row_units >= col_units;
  const std::int64_t units = by_rows ? row_units : col_units;
  // 2 ranges per worker for load balance; the partition never changes
  // results, only which thread computes which tiles.
  util::ThreadPool& pool = util::global_thread_pool();
  const std::size_t width =
      pool.fork_width(static_cast<std::size_t>(2 * m * n * k), kGemmForkFlops);
  const auto wanted = static_cast<std::int64_t>(2 * width);

  if (width > 1 && units < wanted && units < panels &&
      panels * mn <= kGemmSlotFloats) {
    // Slot q holds panel q's tiles; kept per calling thread (a K split only
    // runs outside the pool), so a warm call allocates nothing.
    thread_local std::vector<float> slot_buf;
    slot_buf.resize(static_cast<std::size_t>(panels * mn));
    float* const slots = slot_buf.data();
    pool.for_ranges(static_cast<std::size_t>(panels),
                    static_cast<std::size_t>(std::min(panels, wanted)),
                    [&](std::size_t, std::size_t q0, std::size_t q1) {
                      const auto p0 = static_cast<std::int64_t>(q0);
                      ranges(layout, m, n, k, alpha, a, b, slots + p0 * mn,
                             0, m, 0, n, p0, static_cast<std::int64_t>(q1),
                             GemmWrite::kSlots);
                    });
    // The fold makes each element's additions in the order one range
    // would: c = 0.0f + acc_0 (beta 0) or c += acc_0, then c += acc_q.
    for (std::int64_t q = 0; q < panels; ++q) {
      const float* slot = slots + q * mn;
      if (q == 0 && write == GemmWrite::kBeta0) {
        for (std::int64_t i = 0; i < mn; ++i) c[i] = 0.0f + slot[i];
      } else {
        for (std::int64_t i = 0; i < mn; ++i) c[i] += slot[i];
      }
    }
    return;
  }

  const std::int64_t unit = by_rows ? kGemmMR : kGemmNC;
  const std::int64_t extent = by_rows ? m : n;
  const auto u_count = static_cast<std::size_t>(units);
  pool.for_ranges(u_count,
                  width > 1 ? std::min(u_count, 2 * width) : 1,
                  [&](std::size_t, std::size_t u0, std::size_t u1) {
                    const auto lo = static_cast<std::int64_t>(u0) * unit;
                    const std::int64_t hi =
                        std::min(extent, static_cast<std::int64_t>(u1) * unit);
                    if (by_rows) {
                      ranges(layout, m, n, k, alpha, a, b, c, lo, hi, 0, n, 0,
                             panels, write);
                    } else {
                      ranges(layout, m, n, k, alpha, a, b, c, 0, m, lo, hi, 0,
                             panels, write);
                    }
                  });
}

// Output-x range [x0, x1) for which ix = x*stride - pad + kx stays inside
// [0, in_w). Outside that span the patch samples the zero padding.
struct XSpan {
  std::int64_t x0;
  std::int64_t x1;
};

XSpan valid_span(std::int64_t extent, std::int64_t out_extent,
                 std::int64_t stride, std::int64_t pad,
                 std::int64_t k) noexcept {
  // Smallest x with x*stride - pad + k >= 0, and first x past the end.
  const std::int64_t lo = pad - k;
  std::int64_t x0 = lo > 0 ? (lo + stride - 1) / stride : 0;
  std::int64_t x1 = (extent + pad - k + stride - 1) / stride;
  x0 = std::min(x0, out_extent);
  x1 = std::clamp(x1, x0, out_extent);
  return {x0, x1};
}

// im2col/col2im core over one sample, writing into a column matrix whose
// rows have leading dimension `ld` and whose columns for this sample start
// at `col_offset`. Per-row the valid span is precomputed so the inner loops
// carry no bounds checks; stride 1 degenerates to a contiguous copy
// (im2col) or add (col2im).
void im2col_one(const ConvGeometry& g, const float* image, float* col,
                std::int64_t ld, std::int64_t col_offset) noexcept {
  const std::int64_t oh = g.out_h();
  const std::int64_t ow = g.out_w();
  std::int64_t row = 0;
  for (std::int64_t c = 0; c < g.in_channels; ++c) {
    const float* plane = image + c * g.in_h * g.in_w;
    for (std::int64_t ky = 0; ky < g.kernel; ++ky) {
      const XSpan ys = valid_span(g.in_h, oh, g.stride, g.pad, ky);
      for (std::int64_t kx = 0; kx < g.kernel; ++kx, ++row) {
        const XSpan xs = valid_span(g.in_w, ow, g.stride, g.pad, kx);
        float* out = col + row * ld + col_offset;
        std::memset(out, 0, static_cast<std::size_t>(ys.x0 * ow) * sizeof(float));
        std::memset(out + ys.x1 * ow, 0,
                    static_cast<std::size_t>((oh - ys.x1) * ow) * sizeof(float));
        for (std::int64_t y = ys.x0; y < ys.x1; ++y) {
          const std::int64_t iy = y * g.stride - g.pad + ky;
          const float* src = plane + iy * g.in_w;
          float* dst = out + y * ow;
          for (std::int64_t x = 0; x < xs.x0; ++x) dst[x] = 0.0f;
          if (g.stride == 1) {
            std::memcpy(dst + xs.x0, src + (xs.x0 - g.pad + kx),
                        static_cast<std::size_t>(xs.x1 - xs.x0) * sizeof(float));
          } else {
            for (std::int64_t x = xs.x0; x < xs.x1; ++x) {
              dst[x] = src[x * g.stride - g.pad + kx];
            }
          }
          for (std::int64_t x = xs.x1; x < ow; ++x) dst[x] = 0.0f;
        }
      }
    }
  }
  ZKA_DCHECK(row == g.patch_size(), "im2col rows %lld != patch size %lld",
             static_cast<long long>(row),
             static_cast<long long>(g.patch_size()));
}

void col2im_one(const ConvGeometry& g, const float* col, float* image,
                std::int64_t ld, std::int64_t col_offset) noexcept {
  const std::int64_t oh = g.out_h();
  const std::int64_t ow = g.out_w();
  std::int64_t row = 0;
  for (std::int64_t c = 0; c < g.in_channels; ++c) {
    float* plane = image + c * g.in_h * g.in_w;
    for (std::int64_t ky = 0; ky < g.kernel; ++ky) {
      const XSpan ys = valid_span(g.in_h, oh, g.stride, g.pad, ky);
      for (std::int64_t kx = 0; kx < g.kernel; ++kx, ++row) {
        const XSpan xs = valid_span(g.in_w, ow, g.stride, g.pad, kx);
        const float* in = col + row * ld + col_offset;
        for (std::int64_t y = ys.x0; y < ys.x1; ++y) {
          const std::int64_t iy = y * g.stride - g.pad + ky;
          float* dst = plane + iy * g.in_w;
          const float* src = in + y * ow;
          if (g.stride == 1) {
            // Image x - pad + kx takes column x: one contiguous run, which
            // vectorizes (each element still gets one add per row).
            float* __restrict d = dst + (xs.x0 - g.pad + kx);
            const float* __restrict s = src + xs.x0;
            const std::int64_t len = xs.x1 - xs.x0;
            for (std::int64_t x = 0; x < len; ++x) d[x] += s[x];
          } else {
            for (std::int64_t x = xs.x0; x < xs.x1; ++x) {
              dst[x * g.stride - g.pad + kx] += src[x];
            }
          }
        }
      }
    }
  }
  ZKA_DCHECK(row == g.patch_size(), "col2im rows %lld != patch size %lld",
             static_cast<long long>(row),
             static_cast<long long>(g.patch_size()));
}

// Geometry preconditions shared by the im2col/col2im entry points.
// Violations are programmer errors in the conv layers, not user input, so
// this is contract-build-only.
void dcheck_geometry(const ConvGeometry& g, std::int64_t batch) noexcept {
  ZKA_DCHECK(g.in_channels > 0 && g.in_h > 0 && g.in_w > 0,
             "conv geometry: bad input %lldx%lldx%lld",
             static_cast<long long>(g.in_channels),
             static_cast<long long>(g.in_h), static_cast<long long>(g.in_w));
  ZKA_DCHECK(g.kernel > 0 && g.stride > 0 && g.pad >= 0,
             "conv geometry: kernel=%lld stride=%lld pad=%lld",
             static_cast<long long>(g.kernel),
             static_cast<long long>(g.stride), static_cast<long long>(g.pad));
  ZKA_DCHECK(g.out_h() > 0 && g.out_w() > 0 && batch >= 0,
             "conv geometry: empty output %lldx%lld (batch %lld)",
             static_cast<long long>(g.out_h()),
             static_cast<long long>(g.out_w()), static_cast<long long>(batch));
}

// Runs one(s) for every sample s. Samples are independent (disjoint column
// slabs / disjoint images), so one task per sample is deterministic; a
// small batch stays on the calling thread.
template <typename F>
void for_each_sample(const ConvGeometry& g, std::int64_t batch, F&& one) {
  const auto samples = static_cast<std::size_t>(batch);
  util::ThreadPool& pool = util::global_thread_pool();
  const bool fork =
      batch >= 4 &&
      pool.fork_width(static_cast<std::size_t>(g.patch_size() * g.out_h() *
                                               g.out_w() * batch)) > 1;
  pool.for_ranges(samples, fork ? samples : 1,
                  [&](std::size_t, std::size_t lo, std::size_t hi) {
                    for (std::size_t s = lo; s < hi; ++s) {
                      one(static_cast<std::int64_t>(s));
                    }
                  });
}

}  // namespace

const char* gemm_backend_name() noexcept { return backend().name; }

void gemm(std::int64_t m, std::int64_t n, std::int64_t k, float alpha,
          const float* a, const float* b, float beta, float* c) noexcept {
  gemm_driver(GemmLayout::kAB, m, n, k, alpha, a, b, beta, c);
}

void gemm_at_b(std::int64_t m, std::int64_t n, std::int64_t k, float alpha,
               const float* a, const float* b, float beta, float* c) noexcept {
  gemm_driver(GemmLayout::kAtB, m, n, k, alpha, a, b, beta, c);
}

void gemm_a_bt(std::int64_t m, std::int64_t n, std::int64_t k, float alpha,
               const float* a, const float* b, float beta, float* c) noexcept {
  gemm_driver(GemmLayout::kABt, m, n, k, alpha, a, b, beta, c);
}

void im2col_batched(const ConvGeometry& g, const float* images,
                    std::int64_t batch, float* col) noexcept {
  dcheck_geometry(g, batch);
  const std::int64_t spatial = g.out_h() * g.out_w();
  const std::int64_t ld = batch * spatial;
  const std::int64_t image_size = g.in_channels * g.in_h * g.in_w;
  for_each_sample(g, batch, [&](std::int64_t s) {
    im2col_one(g, images + s * image_size, col, ld, s * spatial);
  });
}

void col2im_batched(const ConvGeometry& g, const float* col,
                    std::int64_t batch, float* images) noexcept {
  dcheck_geometry(g, batch);
  const std::int64_t spatial = g.out_h() * g.out_w();
  const std::int64_t ld = batch * spatial;
  const std::int64_t image_size = g.in_channels * g.in_h * g.in_w;
  for_each_sample(g, batch, [&](std::int64_t s) {
    col2im_one(g, col, images + s * image_size, ld, s * spatial);
  });
}

}  // namespace zka::tensor
