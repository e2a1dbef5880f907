// AVX-512F implementation of the canonical accumulation order
// (kernels.hpp). Compiled with -mavx512f only (which implies the AVX2+FMA
// baseline for the 256-bit tails); every entry point sits behind the runtime
// CPU dispatch in kernels.cpp.
//
// The pitfall this file is built around: widening a reduction to one 8-wide
// (or 16-wide) accumulator would change the accumulation order — element i
// would land in lane i % 8 instead of the canonical i % 4 — and break
// bit-identity with the scalar/AVX2 paths. Instead, a zmm register here
// holds the canonical accumulators of TWO OUTPUT ROWS:
//
//   zmm = [ row0.lane0..3 | row1.lane0..3 ]       (fp64)
//
// Each step broadcasts one 4-wide slice of x to both halves and fmadds the
// matching slices of the two weight rows, so each half computes exactly the
// scalar chain for its row — the 512-bit width buys row parallelism, not a
// different reduction. Odd trailing rows and the plain dot() fall back to
// the 256-bit canonical kernels (identical to the AVX2 TU). Element-wise
// kernels (gemv_transposed, rank1_update) have no cross-lane reduction, so
// they use straight 512-bit ops: vfmadd for gemv_transposed, mul-then-add
// for rank1_update (see the rank1_update contract in kernels.hpp).
#include "rl/kernels.hpp"

#ifdef NETADV_HAVE_AVX512

// GCC implements the unmasked AVX-512 insert/broadcast intrinsics as masked
// builtins whose merge source is _mm512_undefined_pd(); with -Wextra that
// trips -Wmaybe-uninitialized inside the compiler's own avx512fintrin.h
// (GCC bug 105593). The merge source is dead — the mask is all-ones — so
// the warning is spurious; suppress it for this TU only.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif

#include <immintrin.h>

#include <cassert>
#include <cmath>

namespace netadv::rl::kernels::avx512 {

namespace {

/// Canonical 4-lane double dot, 256-bit edition — identical to the AVX2
/// backend's; used for odd trailing rows and plain dot().
inline double dot_canonical_256(const double* a, const double* b,
                                std::size_t n) noexcept {
  __m256d acc = _mm256_setzero_pd();
  const std::size_t n4 = n & ~static_cast<std::size_t>(3);
  for (std::size_t i = 0; i < n4; i += 4) {
    acc = _mm256_fmadd_pd(_mm256_loadu_pd(a + i), _mm256_loadu_pd(b + i), acc);
  }
  alignas(32) double lane[4];
  _mm256_store_pd(lane, acc);
  for (std::size_t i = n4; i < n; ++i) {
    lane[i - n4] = std::fma(a[i], b[i], lane[i - n4]);
  }
  return (lane[0] + lane[1]) + (lane[2] + lane[3]);
}

/// Two canonical double dots at once: row0's 4 lanes in the low zmm half,
/// row1's in the high half. Bit-identical to two dot_canonical_256 calls.
inline void dot_pair(const double* row0, const double* row1, const double* x,
                     std::size_t n, double* out0, double* out1) noexcept {
  __m512d acc = _mm512_setzero_pd();
  const std::size_t n4 = n & ~static_cast<std::size_t>(3);
  for (std::size_t i = 0; i < n4; i += 4) {
    const __m512d xb = _mm512_broadcast_f64x4(_mm256_loadu_pd(x + i));
    const __m512d wp = _mm512_insertf64x4(
        _mm512_castpd256_pd512(_mm256_loadu_pd(row0 + i)),
        _mm256_loadu_pd(row1 + i), 1);
    acc = _mm512_fmadd_pd(wp, xb, acc);
  }
  alignas(64) double lane[8];
  _mm512_store_pd(lane, acc);
  for (std::size_t i = n4; i < n; ++i) {
    lane[i - n4] = std::fma(row0[i], x[i], lane[i - n4]);
    lane[4 + (i - n4)] = std::fma(row1[i], x[i], lane[4 + (i - n4)]);
  }
  *out0 = (lane[0] + lane[1]) + (lane[2] + lane[3]);
  *out1 = (lane[4] + lane[5]) + (lane[6] + lane[7]);
}

}  // namespace

void gemv(std::span<const double> w, std::size_t rows, std::size_t cols,
          std::span<const double> x, std::span<const double> b,
          std::span<double> y) {
  assert(w.size() == rows * cols);
  assert(x.size() == cols);
  assert(b.size() == rows);
  assert(y.size() == rows);
  const std::size_t r2 = rows & ~static_cast<std::size_t>(1);
  for (std::size_t r = 0; r < r2; r += 2) {
    double d0, d1;
    dot_pair(w.data() + r * cols, w.data() + (r + 1) * cols, x.data(), cols,
             &d0, &d1);
    y[r] = b[r] + d0;
    y[r + 1] = b[r + 1] + d1;
  }
  if (r2 < rows) {
    y[r2] = b[r2] + dot_canonical_256(w.data() + r2 * cols, x.data(), cols);
  }
}

void gemm(std::span<const double> w, std::size_t rows, std::size_t cols,
          std::span<const double> x, std::size_t batch,
          std::span<const double> b, std::span<double> y) {
  assert(w.size() == rows * cols);
  assert(x.size() == batch * cols);
  assert(b.size() == rows);
  assert(y.size() == batch * rows);
  for (std::size_t n = 0; n < batch; ++n) {
    gemv(w, rows, cols, x.subspan(n * cols, cols), b,
         y.subspan(n * rows, rows));
  }
}

void gemv_transposed(std::span<const double> w, std::size_t rows,
                     std::size_t cols, std::span<const double> g,
                     std::span<double> y) {
  assert(w.size() == rows * cols);
  assert(g.size() == rows);
  assert(y.size() == cols);
  for (std::size_t c = 0; c < cols; ++c) y[c] = 0.0;
  const std::size_t c8 = cols & ~static_cast<std::size_t>(7);
  const std::size_t c4 = cols & ~static_cast<std::size_t>(3);
  for (std::size_t r = 0; r < rows; ++r) {
    const double* row = w.data() + r * cols;
    const double gr = g[r];
    const __m512d grv8 = _mm512_set1_pd(gr);
    for (std::size_t c = 0; c < c8; c += 8) {
      const __m512d yv = _mm512_loadu_pd(y.data() + c);
      _mm512_storeu_pd(y.data() + c,
                       _mm512_fmadd_pd(_mm512_loadu_pd(row + c), grv8, yv));
    }
    if (c8 < c4) {
      const __m256d grv4 = _mm256_set1_pd(gr);
      const __m256d yv = _mm256_loadu_pd(y.data() + c8);
      _mm256_storeu_pd(y.data() + c8,
                       _mm256_fmadd_pd(_mm256_loadu_pd(row + c8), grv4, yv));
    }
    for (std::size_t c = c4; c < cols; ++c) {
      y[c] = std::fma(row[c], gr, y[c]);
    }
  }
}

void rank1_update(std::span<double> w, std::size_t rows, std::size_t cols,
                  std::span<const double> g, std::span<const double> x) {
  assert(w.size() == rows * cols);
  assert(g.size() == rows);
  assert(x.size() == cols);
  const std::size_t c8 = cols & ~static_cast<std::size_t>(7);
  const std::size_t c4 = cols & ~static_cast<std::size_t>(3);
  for (std::size_t r = 0; r < rows; ++r) {
    double* row = w.data() + r * cols;
    const double gr = g[r];
    const __m512d grv8 = _mm512_set1_pd(gr);
    // Mul-then-add on purpose (not vfmadd) — see the rank1_update contract
    // in kernels.hpp.
    for (std::size_t c = 0; c < c8; c += 8) {
      const __m512d rowv = _mm512_loadu_pd(row + c);
      _mm512_storeu_pd(
          row + c,
          _mm512_add_pd(rowv,
                        _mm512_mul_pd(grv8, _mm512_loadu_pd(x.data() + c))));
    }
    if (c8 < c4) {
      const __m256d grv4 = _mm256_set1_pd(gr);
      const __m256d rowv = _mm256_loadu_pd(row + c8);
      _mm256_storeu_pd(
          row + c8,
          _mm256_add_pd(rowv,
                        _mm256_mul_pd(grv4, _mm256_loadu_pd(x.data() + c8))));
    }
    for (std::size_t c = c4; c < cols; ++c) {
      row[c] += gr * x[c];
    }
  }
}

double dot(std::span<const double> a, std::span<const double> b) {
  assert(a.size() == b.size());
  return dot_canonical_256(a.data(), b.data(), a.size());
}

}  // namespace netadv::rl::kernels::avx512

#endif  // NETADV_HAVE_AVX512
