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
// the 256-bit canonical kernels (identical to the AVX2 TU).
//
// The minibatch kernels are register-tiled (layouts in kernels.hpp):
//  * gemm runs four samples per weight-row pair load: four such two-row
//    accumulators, one per sample, for each of one or two row pairs; an odd
//    last row pairs two samples in one zmm instead ([row.x_s | row.x_s+1]).
//    Each half is still one output's canonical chain, reduced by the fixed
//    tree. It tiles from 8 columns up; narrower layers and the last
//    batch % 4 samples keep the per-row loop, gemv_rows.
//  * gemm_transposed and rank_k_update have no cross-lane reduction: their
//    tiles hold up to 16 columns of output (or of W) per row/sample in
//    registers across the whole reduction, with a vfmadd chain for
//    gemm_transposed and mul-then-add for rank_k_update (see the
//    rank_k_update contract in kernels.hpp).
// Every column tail is a masked load/store, so no lane past a row is read
// or written; the identity tests put NaN sentinels there to prove it.
#include "rl/kernels.hpp"

// GCC implements the unmasked AVX-512 insert/broadcast/permute/shuffle/
// extract intrinsics as masked builtins whose merge source is
// _mm512_undefined_pd(); with -Wextra that trips -Wmaybe-uninitialized and
// -Wuninitialized inside the compiler's own avx512fintrin.h (GCC bug
// 105593). The merge source is dead — the mask is all-ones — so the
// warnings are spurious; suppress them for this TU only.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#pragma GCC diagnostic ignored "-Wuninitialized"
#endif

#include <immintrin.h>

#include <algorithm>
#include <cassert>
#include <cmath>

namespace netadv::rl::kernels::avx512 {

namespace {

// The tiles index their accumulators by compile-time loop counters; fully
// unrolled, GCC keeps every accumulator in a register. Left as loops, it
// keeps a stack copy of the tile and stores it on every step.
#define NETADV_UNROLL _Pragma("GCC unroll 8")

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

/// One sample's y = W x + b on raw rows, gemm's remainder loop: row pairs
/// through dot_pair, an odd last row through the 256-bit canonical dot.
inline void gemv_rows(const double* w, std::size_t rows, std::size_t cols,
                      const double* x, const double* b, double* y) noexcept {
  const std::size_t r2 = rows & ~static_cast<std::size_t>(1);
  for (std::size_t r = 0; r < r2; r += 2) {
    double d0, d1;
    dot_pair(w + r * cols, w + (r + 1) * cols, x, cols, &d0, &d1);
    y[r] = b[r] + d0;
    y[r + 1] = b[r + 1] + d1;
  }
  if (r2 < rows) y[r2] = b[r2] + dot_canonical_256(w + r2 * cols, x, cols);
}

/// Both halves' canonical lane sums: lane 0 of the result holds
/// (l0 + l1) + (l2 + l3) of the low half, lane 4 that of the high half.
/// Floating-point addition is commutative, so swapping operands within a
/// pair changes nothing; the pairing is the canonical tree's.
inline __m512d reduce_halves(__m512d acc) noexcept {
  const __m512d t = _mm512_add_pd(acc, _mm512_permute_pd(acc, 0x55));
  return _mm512_add_pd(t, _mm512_shuffle_f64x2(t, t, 0xB1));
}

inline double low_half_sum(__m512d reduced) noexcept {
  return _mm512_cvtsd_f64(reduced);
}

inline double high_half_sum(__m512d reduced) noexcept {
  return _mm256_cvtsd_f64(_mm512_extractf64x4_pd(reduced, 1));
}

/// [a[i..i+3] | b[i..i+3]] in one zmm.
inline __m512d load_pair(const double* a, const double* b,
                         std::size_t i) noexcept {
  return _mm512_insertf64x4(_mm512_castpd256_pd512(_mm256_loadu_pd(a + i)),
                            _mm256_loadu_pd(b + i), 1);
}

/// The 4-wide tail slices a[n4 .. n4+tail) and b[n4 .. n4+tail) in the low
/// lanes of each half, zero elsewhere; `tail` = popcount(low). Needs
/// n4 >= 4 so that b's load base stays inside b's row; the masked-off
/// lanes are never read.
inline __m512d load_pair_tail(const double* a, const double* b, std::size_t n4,
                              __mmask8 low) noexcept {
  return _mm512_mask_loadu_pd(_mm512_maskz_loadu_pd(low, a + n4),
                              static_cast<__mmask8>(low << 4), b + n4 - 4);
}

inline __m512d broadcast4(const double* a) noexcept {
  return _mm512_broadcast_f64x4(_mm256_loadu_pd(a));
}

inline __m512d broadcast4_tail(const double* a, __mmask8 low) noexcept {
  return _mm512_broadcast_f64x4(
      _mm512_castpd512_pd256(_mm512_maskz_loadu_pd(low, a)));
}

/// Narrowest `cols` at which gemm tiles four samples; below it the per-row
/// gemv_rows loop is faster (the CC adversary's 2- and 4-wide layers).
constexpr std::size_t kGemmTileMinCols = 8;

/// The canonical totals (l0 + l1) + (l2 + l3) of one row pair's four
/// sample accumulators acc[0..4): lanes [s0, s1, s0, s1 | s2, s3, s2, s3]
/// of the result, holding the pair's rows [0, 0, 1, 1 | 0, 0, 1, 1].
inline __m512d reduce_pair(const __m512d* acc) noexcept {
  // Lane 2j of u01 is acc[0]'s (l2j + l2j+1), lane 2j+1 is acc[1]'s.
  const __m512d u01 = _mm512_add_pd(_mm512_unpacklo_pd(acc[0], acc[1]),
                                    _mm512_unpackhi_pd(acc[0], acc[1]));
  const __m512d u23 = _mm512_add_pd(_mm512_unpacklo_pd(acc[2], acc[3]),
                                    _mm512_unpackhi_pd(acc[2], acc[3]));
  // (l0 + l1) + (l2 + l3) per half: 128-bit lanes 0 and 2 of each u hold
  // the (l0 + l1) pairs, lanes 1 and 3 the (l2 + l3) pairs.
  return _mm512_add_pd(_mm512_shuffle_f64x2(u01, u23, 0x88),
                       _mm512_shuffle_f64x2(u01, u23, 0xDD));
}

/// Rows r .. r+3 of four samples from two row pairs' accumulators acc[p][s]:
/// each output is b[row] + its canonical total, as in gemv_rows, stored as
/// one 4-wide slice per sample.
inline void store_row_quads(const __m512d (*acc)[4], const double* b,
                            double* y, std::size_t rows) noexcept {
  const __m512d s0 = reduce_pair(acc[0]);  // rows 0, 1
  const __m512d s1 = reduce_pair(acc[1]);  // rows 2, 3
  const __m512d bias = broadcast4(b);
  const __m512d y01 = _mm512_add_pd(
      bias, _mm512_permutex2var_pd(
                s0, _mm512_set_epi64(11, 9, 3, 1, 10, 8, 2, 0), s1));
  const __m512d y23 = _mm512_add_pd(
      bias, _mm512_permutex2var_pd(
                s0, _mm512_set_epi64(15, 13, 7, 5, 14, 12, 6, 4), s1));
  _mm256_storeu_pd(y, _mm512_castpd512_pd256(y01));
  _mm256_storeu_pd(y + rows, _mm512_extractf64x4_pd(y01, 1));
  _mm256_storeu_pd(y + 2 * rows, _mm512_castpd512_pd256(y23));
  _mm256_storeu_pd(y + 3 * rows, _mm512_extractf64x4_pd(y23, 1));
}

/// P consecutive weight-row pairs from row r, for the four samples xs[0..4)
/// (cols >= 4): each pair is loaded once per 4-element step and fmadded
/// into the four samples' two-row accumulators, so every output keeps
/// dot_pair's canonical chain; the P x 4 chains are independent.
template <std::size_t P>
inline void gemm_row_pairs(const double* w, std::size_t rows, std::size_t cols,
                           std::size_t r, const double* const* xs,
                           const __m512d* x_tails, const double* b,
                           double* y) noexcept {
  const std::size_t n4 = cols & ~static_cast<std::size_t>(3);
  const auto low = static_cast<__mmask8>((1u << (cols - n4)) - 1u);
  const auto both = static_cast<__mmask8>(low | (low << 4));
  __m512d acc[P][4];
  NETADV_UNROLL
  for (std::size_t p = 0; p < P; ++p) {
    NETADV_UNROLL
    for (std::size_t s = 0; s < 4; ++s) acc[p][s] = _mm512_setzero_pd();
  }
  for (std::size_t i = 0; i < n4; i += 4) {
    __m512d xb[4];
    NETADV_UNROLL
    for (std::size_t s = 0; s < 4; ++s) xb[s] = broadcast4(xs[s] + i);
    NETADV_UNROLL
    for (std::size_t p = 0; p < P; ++p) {
      const double* row0 = w + (r + 2 * p) * cols;
      const __m512d wp = load_pair(row0, row0 + cols, i);
      NETADV_UNROLL
      for (std::size_t s = 0; s < 4; ++s) {
        acc[p][s] = _mm512_fmadd_pd(wp, xb[s], acc[p][s]);
      }
    }
  }
  if (low != 0) {
    NETADV_UNROLL
    for (std::size_t p = 0; p < P; ++p) {
      const double* row0 = w + (r + 2 * p) * cols;
      const __m512d wp = load_pair_tail(row0, row0 + cols, n4, low);
      NETADV_UNROLL
      for (std::size_t s = 0; s < 4; ++s) {
        acc[p][s] = _mm512_mask3_fmadd_pd(wp, x_tails[s], acc[p][s], both);
      }
    }
  }
  if constexpr (P == 2) {
    store_row_quads(acc, b + r, y + r, rows);
  } else {
    NETADV_UNROLL
    for (std::size_t p = 0; p < P; ++p) {
      const std::size_t row = r + 2 * p;
      NETADV_UNROLL
      for (std::size_t s = 0; s < 4; ++s) {
        const __m512d sum = reduce_halves(acc[p][s]);
        y[s * rows + row] = b[row] + low_half_sum(sum);
        y[s * rows + row + 1] = b[row + 1] + high_half_sum(sum);
      }
    }
  }
}

/// gemm over four consecutive samples x[0..4) (cols >= kGemmTileMinCols):
/// row pairs two at a time, then a last pair, then an odd last row, which
/// pairs samples instead ([row . x_s | row . x_s+1]) — the same canonical
/// chain with the multiplication's operands swapped.
void gemm_tile4(const double* w, std::size_t rows, std::size_t cols,
                const double* x, const double* b, double* y) noexcept {
  const double* const xs[4] = {x, x + cols, x + 2 * cols, x + 3 * cols};
  const std::size_t n4 = cols & ~static_cast<std::size_t>(3);
  const auto low = static_cast<__mmask8>((1u << (cols - n4)) - 1u);
  const auto both = static_cast<__mmask8>(low | (low << 4));
  // Each sample's broadcast tail slice, shared by every row pair.
  __m512d x_tails[4];
  NETADV_UNROLL
  for (std::size_t s = 0; s < 4; ++s) {
    x_tails[s] = broadcast4_tail(xs[s] + n4, low);
  }
  std::size_t r = 0;
  for (; r + 4 <= rows; r += 4) {
    gemm_row_pairs<2>(w, rows, cols, r, xs, x_tails, b, y);
  }
  if (r + 2 <= rows) {
    gemm_row_pairs<1>(w, rows, cols, r, xs, x_tails, b, y);
    r += 2;
  }
  if (r < rows) {
    const double* row = w + r * cols;
    __m512d a01 = _mm512_setzero_pd(), a23 = _mm512_setzero_pd();
    for (std::size_t i = 0; i < n4; i += 4) {
      const __m512d wb = broadcast4(row + i);
      a01 = _mm512_fmadd_pd(load_pair(xs[0], xs[1], i), wb, a01);
      a23 = _mm512_fmadd_pd(load_pair(xs[2], xs[3], i), wb, a23);
    }
    if (low != 0) {
      const __m512d wb = broadcast4_tail(row + n4, low);
      a01 = _mm512_mask3_fmadd_pd(load_pair_tail(xs[0], xs[1], n4, low), wb,
                                  a01, both);
      a23 = _mm512_mask3_fmadd_pd(load_pair_tail(xs[2], xs[3], n4, low), wb,
                                  a23, both);
    }
    const __m512d s01 = reduce_halves(a01);
    const __m512d s23 = reduce_halves(a23);
    y[r] = b[r] + low_half_sum(s01);
    y[rows + r] = b[r] + high_half_sum(s01);
    y[2 * rows + r] = b[r] + low_half_sum(s23);
    y[3 * rows + r] = b[r] + high_half_sum(s23);
  }
}

/// Up to 16 columns of a row-major matrix as one or two zmm chunks; `m0`
/// and `m1` mask each chunk's live lanes.
struct ColumnTile {
  bool two;
  __mmask8 m0;
  __mmask8 m1;
};

inline __mmask8 lanes(std::size_t n) noexcept {
  return n >= 8 ? static_cast<__mmask8>(0xFF)
                : static_cast<__mmask8>((1u << n) - 1u);
}

inline ColumnTile column_tile(std::size_t left) noexcept {
  return {left > 8, lanes(left), left > 8 ? lanes(left - 8) : __mmask8{0}};
}

/// gemm_transposed for S samples (g rows at g + s*ldg) over one column tile
/// of C chunks starting at `w` (row stride `cols`): the S x C accumulators
/// stay in registers across all rows, each the fma chain over r = 0, 1, ...
/// from 0.0. Masked-off lanes are neither read nor stored.
template <std::size_t S, std::size_t C>
void gemm_t_tile(const double* w, std::size_t rows, std::size_t cols,
                 const double* g, std::size_t ldg, double* y, std::size_t ldy,
                 ColumnTile t) noexcept {
  const __mmask8 mask[2] = {t.m0, t.m1};
  __m512d acc[S][C];
  NETADV_UNROLL
  for (std::size_t s = 0; s < S; ++s) {
    NETADV_UNROLL
    for (std::size_t j = 0; j < C; ++j) acc[s][j] = _mm512_setzero_pd();
  }
  for (std::size_t r = 0; r < rows; ++r) {
    __m512d wv[C];
    NETADV_UNROLL
    for (std::size_t j = 0; j < C; ++j) {
      wv[j] = _mm512_maskz_loadu_pd(mask[j], w + r * cols + 8 * j);
    }
    NETADV_UNROLL
    for (std::size_t s = 0; s < S; ++s) {
      const __m512d gv = _mm512_set1_pd(g[s * ldg + r]);
      NETADV_UNROLL
      for (std::size_t j = 0; j < C; ++j) {
        acc[s][j] = _mm512_fmadd_pd(wv[j], gv, acc[s][j]);
      }
    }
  }
  NETADV_UNROLL
  for (std::size_t s = 0; s < S; ++s) {
    NETADV_UNROLL
    for (std::size_t j = 0; j < C; ++j) {
      _mm512_mask_storeu_pd(y + s * ldy + 8 * j, mask[j], acc[s][j]);
    }
  }
}

/// rank_k_update on an R-row x C-chunk tile of W at `w` (row stride
/// `cols`): the tile stays in registers across all m samples, each element
/// getting m mul-then-add steps in ascending k — R x C independent add
/// chains. Masked-off lanes are neither read nor stored.
template <std::size_t R, std::size_t C>
void rank_k_tile(double* w, std::size_t cols, const double* g, std::size_t ldg,
                 const double* x, std::size_t ldx, std::size_t m,
                 ColumnTile t) noexcept {
  const __mmask8 mask[2] = {t.m0, t.m1};
  __m512d acc[R][C];
  NETADV_UNROLL
  for (std::size_t r = 0; r < R; ++r) {
    NETADV_UNROLL
    for (std::size_t j = 0; j < C; ++j) {
      acc[r][j] = _mm512_maskz_loadu_pd(mask[j], w + r * cols + 8 * j);
    }
  }
  for (std::size_t k = 0; k < m; ++k) {
    const double* gk = g + k * ldg;
    const double* xk = x + k * ldx;
    __m512d xv[C];
    NETADV_UNROLL
    for (std::size_t j = 0; j < C; ++j) {
      xv[j] = _mm512_maskz_loadu_pd(mask[j], xk + 8 * j);
    }
    NETADV_UNROLL
    for (std::size_t r = 0; r < R; ++r) {
      const __m512d gv = _mm512_set1_pd(gk[r]);
      // Mul-then-add on purpose (not vfmadd) — see the rank_k_update
      // contract in kernels.hpp.
      NETADV_UNROLL
      for (std::size_t j = 0; j < C; ++j) {
        acc[r][j] = _mm512_add_pd(acc[r][j], _mm512_mul_pd(gv, xv[j]));
      }
    }
  }
  NETADV_UNROLL
  for (std::size_t r = 0; r < R; ++r) {
    NETADV_UNROLL
    for (std::size_t j = 0; j < C; ++j) {
      _mm512_mask_storeu_pd(w + r * cols + 8 * j, mask[j], acc[r][j]);
    }
  }
}

}  // namespace

void gemm(std::span<const double> w, std::size_t rows, std::size_t cols,
          std::span<const double> x, std::size_t batch,
          std::span<const double> b, std::span<double> y) {
  assert(w.size() == rows * cols);
  assert(x.size() == batch * cols);
  assert(b.size() == rows);
  assert(y.size() == batch * rows);
  std::size_t n = 0;
  if (cols >= kGemmTileMinCols) {
    for (; n + 4 <= batch; n += 4) {
      gemm_tile4(w.data(), rows, cols, x.data() + n * cols, b.data(),
                 y.data() + n * rows);
    }
  }
  for (; n < batch; ++n) {
    gemv_rows(w.data(), rows, cols, x.data() + n * cols, b.data(),
              y.data() + n * rows);
  }
}

void gemm_transposed(std::span<const double> w, std::size_t rows,
                     std::size_t cols, std::span<const double> g,
                     std::size_t ldg, std::size_t batch, std::span<double> y,
                     std::size_t ldy) {
  assert(w.size() == rows * cols);
  assert(batch == 0 || (ldg >= rows && g.size() >= (batch - 1) * ldg + rows));
  assert(batch == 0 || (ldy >= cols && y.size() >= (batch - 1) * ldy + cols));
  for (std::size_t s = 0; s < batch; s += 4) {
    const double* gs = g.data() + s * ldg;
    double* ys = y.data() + s * ldy;
    const std::size_t samples = std::min<std::size_t>(4, batch - s);
    for (std::size_t c = 0; c < cols; c += 16) {
      const ColumnTile t = column_tile(cols - c);
      const double* wc = w.data() + c;
      double* yc = ys + c;
      switch (samples * 2 + (t.two ? 1 : 0)) {
        case 2: gemm_t_tile<1, 1>(wc, rows, cols, gs, ldg, yc, ldy, t); break;
        case 3: gemm_t_tile<1, 2>(wc, rows, cols, gs, ldg, yc, ldy, t); break;
        case 4: gemm_t_tile<2, 1>(wc, rows, cols, gs, ldg, yc, ldy, t); break;
        case 5: gemm_t_tile<2, 2>(wc, rows, cols, gs, ldg, yc, ldy, t); break;
        case 6: gemm_t_tile<3, 1>(wc, rows, cols, gs, ldg, yc, ldy, t); break;
        case 7: gemm_t_tile<3, 2>(wc, rows, cols, gs, ldg, yc, ldy, t); break;
        case 8: gemm_t_tile<4, 1>(wc, rows, cols, gs, ldg, yc, ldy, t); break;
        default: gemm_t_tile<4, 2>(wc, rows, cols, gs, ldg, yc, ldy, t); break;
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
  if (m == 0) return;
  for (std::size_t r = 0; r < rows; r += 4) {
    const std::size_t tile_rows = std::min<std::size_t>(4, rows - r);
    for (std::size_t c = 0; c < cols; c += 16) {
      const ColumnTile t = column_tile(cols - c);
      double* wt = w.data() + r * cols + c;
      const double* gr = g.data() + r;
      const double* xc = x.data() + c;
      switch (tile_rows * 2 + (t.two ? 1 : 0)) {
        case 2: rank_k_tile<1, 1>(wt, cols, gr, ldg, xc, ldx, m, t); break;
        case 3: rank_k_tile<1, 2>(wt, cols, gr, ldg, xc, ldx, m, t); break;
        case 4: rank_k_tile<2, 1>(wt, cols, gr, ldg, xc, ldx, m, t); break;
        case 5: rank_k_tile<2, 2>(wt, cols, gr, ldg, xc, ldx, m, t); break;
        case 6: rank_k_tile<3, 1>(wt, cols, gr, ldg, xc, ldx, m, t); break;
        case 7: rank_k_tile<3, 2>(wt, cols, gr, ldg, xc, ldx, m, t); break;
        case 8: rank_k_tile<4, 1>(wt, cols, gr, ldg, xc, ldx, m, t); break;
        default: rank_k_tile<4, 2>(wt, cols, gr, ldg, xc, ldx, m, t); break;
      }
    }
  }
}

double dot(std::span<const double> a, std::span<const double> b) {
  assert(a.size() == b.size());
  return dot_canonical_256(a.data(), b.data(), a.size());
}

#undef NETADV_UNROLL

extern const Backend backend{"avx512", gemm, gemm_transposed, rank_k_update,
                             dot};

}  // namespace netadv::rl::kernels::avx512
