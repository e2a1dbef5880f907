// NEON (AArch64 Advanced SIMD) implementation of the canonical accumulation
// order (kernels.hpp). Advanced SIMD is baseline on AArch64, so this TU
// needs no extra ISA flags; it is compiled on every aarch64 target and only
// there (src/rl/CMakeLists.txt).
//
// NEON registers are 128-bit, half the canonical lane count in doubles, so
// the canonical order maps onto a PAIR of q-register accumulators instead of
// one wide register: lanes {0,1} live in acc01, lanes {2,3} in acc23. Each
// 4-element step fmas a[i..i+1] into acc01 and a[i+2..i+3] into acc23 —
// element i still lands in lane i % 4, exactly the scalar chain.
//
// Tails fold into the lane array by std::fma and the lanes combine in the
// fixed tree from kernels.hpp, so results are bit-identical to the scalar
// reference (vfmaq is a fused multiply-add, one rounding, same as
// std::fma). Element-wise kernels have no cross-lane reduction and loop over
// samples one at a time: vfmaq for gemm_transposed, mul-then-add for
// rank_k_update (see the rank_k_update contract in kernels.hpp).
#include "rl/kernels.hpp"

#include <arm_neon.h>

#include <cassert>
#include <cmath>

namespace netadv::rl::kernels::neon {

namespace {

/// Canonical 4-lane double dot on two 2-wide accumulators. Bit-identical to
/// kernels.cpp's dot_canonical.
inline double dot_canonical_neon(const double* a, const double* b,
                                 std::size_t n) noexcept {
  float64x2_t acc01 = vdupq_n_f64(0.0);  // canonical lanes {0, 1}
  float64x2_t acc23 = vdupq_n_f64(0.0);  // canonical lanes {2, 3}
  const std::size_t n4 = n & ~static_cast<std::size_t>(3);
  for (std::size_t i = 0; i < n4; i += 4) {
    acc01 = vfmaq_f64(acc01, vld1q_f64(a + i), vld1q_f64(b + i));
    acc23 = vfmaq_f64(acc23, vld1q_f64(a + i + 2), vld1q_f64(b + i + 2));
  }
  double lane[kLanes];
  vst1q_f64(lane, acc01);
  vst1q_f64(lane + 2, acc23);
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
      yn[r] = b[r] + dot_canonical_neon(w.data() + r * cols, xn, cols);
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
  const std::size_t c2 = cols & ~static_cast<std::size_t>(1);
  for (std::size_t s = 0; s < batch; ++s) {
    const double* gs = g.data() + s * ldg;
    double* ys = y.data() + s * ldy;
    for (std::size_t c = 0; c < cols; ++c) ys[c] = 0.0;
    for (std::size_t r = 0; r < rows; ++r) {
      const double* row = w.data() + r * cols;
      const double gr = gs[r];
      const float64x2_t grv = vdupq_n_f64(gr);
      for (std::size_t c = 0; c < c2; c += 2) {
        vst1q_f64(ys + c,
                  vfmaq_f64(vld1q_f64(ys + c), vld1q_f64(row + c), grv));
      }
      for (std::size_t c = c2; c < cols; ++c) {
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
  const std::size_t c2 = cols & ~static_cast<std::size_t>(1);
  for (std::size_t k = 0; k < m; ++k) {
    const double* gk = g.data() + k * ldg;
    const double* xk = x.data() + k * ldx;
    for (std::size_t r = 0; r < rows; ++r) {
      double* row = w.data() + r * cols;
      const double gr = gk[r];
      const float64x2_t grv = vdupq_n_f64(gr);
      // Mul-then-add on purpose (not vfmaq) — see the rank_k_update
      // contract in kernels.hpp.
      for (std::size_t c = 0; c < c2; c += 2) {
        vst1q_f64(row + c, vaddq_f64(vld1q_f64(row + c),
                                     vmulq_f64(grv, vld1q_f64(xk + c))));
      }
      for (std::size_t c = c2; c < cols; ++c) {
        row[c] += gr * xk[c];
      }
    }
  }
}

double dot(std::span<const double> a, std::span<const double> b) {
  assert(a.size() == b.size());
  return dot_canonical_neon(a.data(), b.data(), a.size());
}

extern const Backend backend{"neon", gemm, gemm_transposed, rank_k_update,
                             dot};

}  // namespace netadv::rl::kernels::neon
