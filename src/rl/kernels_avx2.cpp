// AVX2+FMA implementation of the canonical 4-lane accumulation order
// (kernels.hpp). This is the only translation unit compiled with
// -mavx2 -mfma; it must stay free of code that runs before the runtime
// dispatch check, and everything here must compute exactly the canonical
// order so results are bit-identical to kernels.cpp's scalar path:
//
//  * reductions: one 256-bit accumulator whose lane j holds the partial sum
//    of elements i with i % 4 == j (a contiguous 4-wide load puts a[i + j]
//    in lane j), tail elements folded into lanes 0..tail-1 by scalar fma,
//    lanes combined as (l0 + l1) + (l2 + l3);
//  * element-wise kernels: same per-element operation and order as the
//    scalar loop (vectorization only batches independent elements) — vfmadd
//    for gemm_transposed, mul-then-add for rank_k_update (see kernels.hpp);
//    both loop over samples one at a time.
#include "rl/kernels.hpp"

#include <immintrin.h>

#include <cassert>
#include <cmath>

namespace netadv::rl::kernels::avx2 {

namespace {

/// Canonical dot product, AVX2 edition. Matches kernels.cpp's
/// dot_canonical bit for bit (see file comment).
inline double dot_canonical_avx2(const double* a, const double* b,
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

}  // namespace

void gemm(std::span<const double> w, std::size_t rows, std::size_t cols,
          std::span<const double> x, std::size_t batch,
          std::span<const double> b, std::span<double> y) {
  assert(w.size() == rows * cols);
  assert(x.size() == batch * cols);
  assert(b.size() == rows);
  assert(y.size() == batch * rows);
  for (std::size_t n = 0; n < batch; ++n) {
    const double* xn = x.data() + n * cols;
    double* yn = y.data() + n * rows;
    for (std::size_t r = 0; r < rows; ++r) {
      yn[r] = b[r] + dot_canonical_avx2(w.data() + r * cols, xn, cols);
    }
  }
}

void gemm_transposed(std::span<const double> w, std::size_t rows,
                     std::size_t cols, std::span<const double> g,
                     std::size_t ldg, std::size_t batch, std::span<double> y,
                     std::size_t ldy) {
  assert(w.size() == rows * cols);
  assert(batch == 0 || (ldg >= rows && g.size() >= (batch - 1) * ldg + rows));
  assert(batch == 0 || (ldy >= cols && y.size() >= (batch - 1) * ldy + cols));
  const std::size_t c4 = cols & ~static_cast<std::size_t>(3);
  for (std::size_t s = 0; s < batch; ++s) {
    const double* gs = g.data() + s * ldg;
    double* ys = y.data() + s * ldy;
    for (std::size_t c = 0; c < cols; ++c) ys[c] = 0.0;
    for (std::size_t r = 0; r < rows; ++r) {
      const double* row = w.data() + r * cols;
      const double gr = gs[r];
      const __m256d grv = _mm256_set1_pd(gr);
      for (std::size_t c = 0; c < c4; c += 4) {
        const __m256d yv = _mm256_loadu_pd(ys + c);
        _mm256_storeu_pd(ys + c,
                         _mm256_fmadd_pd(_mm256_loadu_pd(row + c), grv, yv));
      }
      for (std::size_t c = c4; c < cols; ++c) {
        ys[c] = std::fma(row[c], gr, ys[c]);
      }
    }
  }
}

void rank_k_update(std::span<double> w, std::size_t rows, std::size_t cols,
                   std::span<const double> g, std::size_t ldg,
                   std::span<const double> x, std::size_t ldx, std::size_t m) {
  assert(w.size() == rows * cols);
  assert(m == 0 || (ldg >= rows && g.size() >= (m - 1) * ldg + rows));
  assert(m == 0 || (ldx >= cols && x.size() >= (m - 1) * ldx + cols));
  const std::size_t c4 = cols & ~static_cast<std::size_t>(3);
  for (std::size_t k = 0; k < m; ++k) {
    const double* gk = g.data() + k * ldg;
    const double* xk = x.data() + k * ldx;
    for (std::size_t r = 0; r < rows; ++r) {
      double* row = w.data() + r * cols;
      const double gr = gk[r];
      const __m256d grv = _mm256_set1_pd(gr);
      // Mul-then-add on purpose (not vfmadd) — see the rank_k_update
      // contract in kernels.hpp.
      for (std::size_t c = 0; c < c4; c += 4) {
        const __m256d rowv = _mm256_loadu_pd(row + c);
        _mm256_storeu_pd(
            row + c,
            _mm256_add_pd(rowv, _mm256_mul_pd(grv, _mm256_loadu_pd(xk + c))));
      }
      for (std::size_t c = c4; c < cols; ++c) {
        row[c] += gr * xk[c];
      }
    }
  }
}

double dot(std::span<const double> a, std::span<const double> b) {
  assert(a.size() == b.size());
  return dot_canonical_avx2(a.data(), b.data(), a.size());
}

extern const Backend backend{"avx2", gemm, gemm_transposed, rank_k_update,
                             dot};

}  // namespace netadv::rl::kernels::avx2
