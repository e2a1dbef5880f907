// Scalar reference implementation of the canonical accumulation order
// (see kernels.hpp) plus the backend list and the dispatch through it. This
// TU is compiled without ISA-specific flags so the binary runs on any x86-64
// (or non-x86) host; std::fma is correctly rounded everywhere, which is what makes the
// scalar path bit-identical to the fused-multiply-add hardware backends.
#include "rl/kernels.hpp"

#include <atomic>
#include <cassert>
#include <cmath>
#include <vector>

namespace netadv::rl::kernels {

namespace {

/// Canonical double dot product: kLanes interleaved fma partial sums,
/// combined in the fixed tree (l0 + l1) + (l2 + l3). The single source of
/// truth for the fp64 accumulation order; every SIMD backend computes
/// exactly this.
inline double dot_canonical(const double* a, const double* b,
                            std::size_t n) noexcept {
  double lane[kLanes] = {0.0, 0.0, 0.0, 0.0};
  for (std::size_t i = 0; i < n; ++i) {
    lane[i % kLanes] = std::fma(a[i], b[i], lane[i % kLanes]);
  }
  return (lane[0] + lane[1]) + (lane[2] + lane[3]);
}

}  // namespace

namespace scalar {

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
      yn[r] = b[r] + dot_canonical(w.data() + r * cols, xn, cols);
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
  for (std::size_t s = 0; s < batch; ++s) {
    const double* gs = g.data() + s * ldg;
    double* ys = y.data() + s * ldy;
    for (std::size_t c = 0; c < cols; ++c) ys[c] = 0.0;
    for (std::size_t r = 0; r < rows; ++r) {
      const double* row = w.data() + r * cols;
      const double gr = gs[r];
      for (std::size_t c = 0; c < cols; ++c) {
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
  for (std::size_t k = 0; k < m; ++k) {
    const double* gk = g.data() + k * ldg;
    const double* xk = x.data() + k * ldx;
    for (std::size_t r = 0; r < rows; ++r) {
      double* row = w.data() + r * cols;
      const double gr = gk[r];
      // Mul-then-add on purpose — see the rank_k_update contract in
      // kernels.hpp.
      for (std::size_t c = 0; c < cols; ++c) {
        row[c] += gr * xk[c];
      }
    }
  }
}

double dot(std::span<const double> a, std::span<const double> b) {
  assert(a.size() == b.size());
  return dot_canonical(a.data(), b.data(), a.size());
}

const Backend backend{"scalar", gemm, gemm_transposed, rank_k_update, dot};

}  // namespace scalar

// The ISA backends, defined in kernels_<name>.cpp when the build compiles
// that TU (src/rl/CMakeLists.txt).
#ifdef NETADV_HAVE_AVX2
namespace avx2 {
extern const Backend backend;
}  // namespace avx2
#endif
#ifdef NETADV_HAVE_AVX512
namespace avx512 {
extern const Backend backend;
}  // namespace avx512
#endif
#ifdef NETADV_HAVE_NEON
namespace neon {
extern const Backend backend;
}  // namespace neon
#endif

std::span<const Backend* const> available_backends() noexcept {
  static const std::vector<const Backend*> list = [] {
    std::vector<const Backend*> out{&scalar::backend};
#ifdef NETADV_HAVE_NEON
    out.push_back(&neon::backend);  // Advanced SIMD is baseline on AArch64.
#endif
#ifdef NETADV_HAVE_AVX2
    if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) {
      out.push_back(&avx2::backend);
    }
#endif
#ifdef NETADV_HAVE_AVX512
    // The TU is built with -mavx512f, but its odd-row tails use 256-bit FMA,
    // so it needs the AVX2+FMA baseline too.
    if (__builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx2") &&
        __builtin_cpu_supports("fma")) {
      out.push_back(&avx512::backend);
    }
#endif
    return out;
  }();
  return list;
}

namespace {

std::atomic<const Backend*>& active_slot() noexcept {
  static std::atomic<const Backend*> slot{available_backends().back()};
  return slot;
}

}  // namespace

const Backend& active_backend() noexcept {
  return *active_slot().load(std::memory_order_relaxed);
}

const char* backend_name() noexcept { return active_backend().name; }

void set_backend(const Backend& backend) noexcept {
  active_slot().store(&backend, std::memory_order_relaxed);
}

void gemm(std::span<const double> w, std::size_t rows, std::size_t cols,
          std::span<const double> x, std::size_t batch,
          std::span<const double> b, std::span<double> y) {
  active_backend().gemm(w, rows, cols, x, batch, b, y);
}

void gemm_transposed(std::span<const double> w, std::size_t rows,
                     std::size_t cols, std::span<const double> g,
                     std::size_t ldg, std::size_t batch, std::span<double> y,
                     std::size_t ldy) {
  active_backend().gemm_transposed(w, rows, cols, g, ldg, batch, y, ldy);
}

void rank_k_update(std::span<double> w, std::size_t rows, std::size_t cols,
                   std::span<const double> g, std::size_t ldg,
                   std::span<const double> x, std::size_t ldx, std::size_t m) {
  active_backend().rank_k_update(w, rows, cols, g, ldg, x, ldx, m);
}

double dot(std::span<const double> a, std::span<const double> b) {
  return active_backend().dot(a, b);
}

}  // namespace netadv::rl::kernels
