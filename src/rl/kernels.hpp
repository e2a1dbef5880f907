// Vectorized math kernels for the MLP core (gemm, batched transposed
// product, rank-k update, dot) behind runtime CPU dispatch, preserving the
// repo's bit-exactness contract. Everything is fp64 (DESIGN.md §7).
//
// The canonical accumulation order
// --------------------------------
// Floating-point addition is not associative, so a vectorized reduction that
// sums in a different order than the scalar loop would break the determinism
// contract (DESIGN.md §7): trained parameters must be bit-identical across
// ISAs and NETADV_THREADS. Instead of forcing SIMD to mimic a serial sum,
// the *canonical* order is defined to be the one SIMD computes naturally —
// kLanes (= 4, the AVX2 double width) interleaved partial sums combined in a
// fixed tree:
//
//   lane[i % 4] = fma(a[i], b[i], lane[i % 4])      for i = 0 .. n-1
//   total       = (lane[0] + lane[1]) + (lane[2] + lane[3])
//
// Every accumulation step is a *fused* multiply-add (one rounding), because
// that is what AVX2 FMA hardware executes; the scalar fallback uses
// std::fma, which is correctly rounded by IEEE 754 and therefore
// bit-identical to the hardware instruction. Element-wise kernels
// (gemm_transposed, rank_k_update) have no cross-lane reduction at all —
// each output element accumulates in the same per-element order either way
// — so they are bit-identical by construction. rank_k_update uses
// mul-then-add (two roundings) rather than fma because every trained
// parameter and golden is pinned to that rounding (DESIGN.md §7).
//
// Wider ISAs keep the same order. A 512-bit register does NOT widen the
// reduction (that would interleave each lane's fma chain into two partial
// chains and shift the result); instead the AVX-512 backend packs the
// canonical 4-lane accumulators of TWO OUTPUT ROWS into one zmm — two
// 4-wide accumulators per register, each half computing exactly the scalar
// chain. NEON (128-bit) splits the 4 lanes across two q registers: lanes
// {0,1} in one accumulator, lanes {2,3} in the other, fma'd in the same
// element order. Both are bit-identical to the scalar reference.
//
// Register tiles
// --------------
// The batched kernels are where the PPO minibatch step spends its time, so
// the AVX-512 backend tiles them; every tile keeps each output element's
// operation sequence, so it stays canonical:
//
//  * gemm, batch >= 4 and cols >= 8: four samples x one weight-row pair per
//    4-element step. The pair [row0 | row1] is loaded once and fmadded
//    against each sample's broadcast x slice into that sample's own
//    two-row accumulator — per half, exactly one row's canonical chain.
//    Narrower layers and the last batch % 4 samples use the per-row loop.
//  * gemm_transposed: up to 4 samples x 16 columns of y held in registers
//    across all W rows; each element is the fma chain over r = 0, 1, ...
//    from 0.0, which is what the scalar loop computes element by element.
//  * rank_k_update: a 4-row x 16-column tile of W held in registers across
//    all m samples; each element gets its m mul-then-add steps in
//    ascending k — the same as m successive rank-1 updates.
//
// Column tails are masked: lanes past a row are neither read nor written.
// The scalar backend defines the order; AVX2 and NEON run the batched
// kernels as loops over their one-sample bodies.
//
// Each backend is one `Backend` table: its name and its four kernels.
// Which backends exist is fixed by the build (every one the target
// architecture and compiler can express) and by the CPU (a host never runs
// an ISA it lacks); available_backends() lists them, and the unqualified
// entry points call through the active one — at startup the widest.
//
// One-time break: adopting this canonical order changed the results of every
// accumulation-based kernel relative to the pre-SIMD serial order, so golden
// values from runs before this layer existed shift once (and never again).
#pragma once

#include <cstddef>
#include <span>

namespace netadv::rl::kernels {

/// Number of interleaved partial sums in the canonical double reduction
/// order (the AVX2 register width in doubles).
inline constexpr std::size_t kLanes = 4;

/// One kernel backend: its name and its implementation of every kernel
/// below. Semantics and bit-exact results are identical across backends;
/// only wall-clock differs.
struct Backend {
  const char* name;  // "scalar", "avx2", "avx512" or "neon"
  void (*gemm)(std::span<const double> w, std::size_t rows, std::size_t cols,
               std::span<const double> x, std::size_t batch,
               std::span<const double> b, std::span<double> y);
  void (*gemm_transposed)(std::span<const double> w, std::size_t rows,
                          std::size_t cols, std::span<const double> g,
                          std::size_t ldg, std::size_t batch,
                          std::span<double> y, std::size_t ldy);
  void (*rank_k_update)(std::span<double> w, std::size_t rows,
                        std::size_t cols, std::span<const double> g,
                        std::size_t ldg, std::span<const double> x,
                        std::size_t ldx, std::size_t m);
  double (*dot)(std::span<const double> a, std::span<const double> b);
};

/// The backends this build compiled and this CPU can run: scalar first,
/// widest last.
std::span<const Backend* const> available_backends() noexcept;

/// The backend the unqualified kernels call; at startup the last entry of
/// available_backends().
const Backend& active_backend() noexcept;

/// The active backend's name.
const char* backend_name() noexcept;

/// Make `backend`, an entry of available_backends(), the active one (tests).
/// Safe to call between parallel regions; the kernels read the active
/// backend atomically.
void set_backend(const Backend& backend) noexcept;

// ---------------------------------------------------------------------------
// Dispatched entry points: one call through the active backend.

/// Batched forward: Y = X W^T + 1 b^T with X (batch x cols) and Y
/// (batch x rows), W row-major (rows x cols). Each output element is
/// b[r] + the canonical dot of W's row r and the sample's x row, whatever
/// the batch: one-sample inference is gemm at batch 1.
void gemm(std::span<const double> w, std::size_t rows, std::size_t cols,
          std::span<const double> x, std::size_t batch,
          std::span<const double> b, std::span<double> y);

/// Batched transposed product: y_s = W^T g_s for s = 0 .. batch-1, where
/// g_s is the `rows` doubles at g[s * ldg] and y_s the `cols` doubles at
/// y[s * ldy] (ldg >= rows, ldy >= cols; the stride gaps are neither read
/// nor written). Each element is one fma chain over r = 0, 1, ... starting
/// from 0.0: y_s[c] = fma(W[r][c], g_s[r], y_s[c]). No lane reduction.
void gemm_transposed(std::span<const double> w, std::size_t rows,
                     std::size_t cols, std::span<const double> g,
                     std::size_t ldg, std::size_t batch, std::span<double> y,
                     std::size_t ldy);

/// W += sum_k g_k x_k^T as m rank-1 steps in ascending k, where g_k is the
/// `rows` doubles at g[k * ldg] and x_k the `cols` doubles at x[k * ldx].
/// Each element is mul-then-add (NOT fma), W[r][c] += g_k[r] * x_k[c], in
/// ascending k: trained parameters and goldens are pinned to the
/// two-rounding form.
void rank_k_update(std::span<double> w, std::size_t rows, std::size_t cols,
                   std::span<const double> g, std::size_t ldg,
                   std::span<const double> x, std::size_t ldx, std::size_t m);

/// Canonical 4-lane dot; requires equal sizes.
double dot(std::span<const double> a, std::span<const double> b);

}  // namespace netadv::rl::kernels
