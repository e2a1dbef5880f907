// Scalar reference implementation of the canonical accumulation order
// (see kernels.hpp) plus the runtime backend dispatch. This TU is compiled
// without ISA-specific flags so the binary runs on any x86-64 (or non-x86)
// host; std::fma is correctly rounded everywhere, which is what makes the
// scalar path bit-identical to the fused-multiply-add hardware backends.
#include "rl/kernels.hpp"

#include <atomic>
#include <cassert>
#include <cmath>
#include <cstdlib>
#include <cstring>

#include "util/log.hpp"

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

void gemv(std::span<const double> w, std::size_t rows, std::size_t cols,
          std::span<const double> x, std::span<const double> b,
          std::span<double> y) {
  assert(w.size() == rows * cols);
  assert(x.size() == cols);
  assert(b.size() == rows);
  assert(y.size() == rows);
  for (std::size_t r = 0; r < rows; ++r) {
    y[r] = b[r] + dot_canonical(w.data() + r * cols, x.data(), cols);
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

}  // namespace scalar

// Builds that compile a backend TU out keep its namespace linkable so tests
// and benches can always call it by name; the stubs degrade to the
// (bit-identical) scalar kernels.
#define NETADV_KERNEL_SCALAR_FORWARDS                                         \
  void gemv(std::span<const double> w, std::size_t rows, std::size_t cols,    \
            std::span<const double> x, std::span<const double> b,             \
            std::span<double> y) {                                            \
    scalar::gemv(w, rows, cols, x, b, y);                                     \
  }                                                                           \
  void gemm(std::span<const double> w, std::size_t rows, std::size_t cols,    \
            std::span<const double> x, std::size_t batch,                     \
            std::span<const double> b, std::span<double> y) {                 \
    scalar::gemm(w, rows, cols, x, batch, b, y);                              \
  }                                                                           \
  void gemm_transposed(std::span<const double> w, std::size_t rows,           \
                       std::size_t cols, std::span<const double> g,           \
                       std::size_t ldg, std::size_t batch,                    \
                       std::span<double> y, std::size_t ldy) {                \
    scalar::gemm_transposed(w, rows, cols, g, ldg, batch, y, ldy);            \
  }                                                                           \
  void rank_k_update(std::span<double> w, std::size_t rows, std::size_t cols, \
                     std::span<const double> g, std::size_t ldg,              \
                     std::span<const double> x, std::size_t ldx,              \
                     std::size_t m) {                                         \
    scalar::rank_k_update(w, rows, cols, g, ldg, x, ldx, m);                  \
  }                                                                           \
  double dot(std::span<const double> a, std::span<const double> b) {          \
    return scalar::dot(a, b);                                                 \
  }

#ifndef NETADV_HAVE_AVX2
namespace avx2 {
NETADV_KERNEL_SCALAR_FORWARDS
}  // namespace avx2
#endif  // !NETADV_HAVE_AVX2

#ifndef NETADV_HAVE_AVX512
namespace avx512 {
NETADV_KERNEL_SCALAR_FORWARDS
}  // namespace avx512
#endif  // !NETADV_HAVE_AVX512

#ifndef NETADV_HAVE_NEON
namespace neon {
NETADV_KERNEL_SCALAR_FORWARDS
}  // namespace neon
#endif  // !NETADV_HAVE_NEON

#undef NETADV_KERNEL_SCALAR_FORWARDS

bool avx2_compiled() noexcept {
#ifdef NETADV_HAVE_AVX2
  return true;
#else
  return false;
#endif
}

bool avx512_compiled() noexcept {
#ifdef NETADV_HAVE_AVX512
  return true;
#else
  return false;
#endif
}

bool neon_compiled() noexcept {
#ifdef NETADV_HAVE_NEON
  return true;
#else
  return false;
#endif
}

bool avx2_runtime_supported() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
  return false;
#endif
}

bool avx512_runtime_supported() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  // The backend TU is built with -mavx512f only, but its odd-row tails use
  // 256-bit FMA, so require the AVX2+FMA baseline too.
  return __builtin_cpu_supports("avx512f") &&
         __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
  return false;
#endif
}

bool neon_runtime_supported() noexcept {
#if defined(__aarch64__)
  return true;  // Advanced SIMD is baseline on AArch64.
#else
  return false;
#endif
}

bool backend_available(Backend backend) noexcept {
  switch (backend) {
    case Backend::kScalar:
      return true;
    case Backend::kAvx2:
      return avx2_compiled() && avx2_runtime_supported();
    case Backend::kAvx512:
      return avx512_compiled() && avx512_runtime_supported();
    case Backend::kNeon:
      return neon_compiled() && neon_runtime_supported();
  }
  return false;
}

Backend best_backend() noexcept {
  if (backend_available(Backend::kAvx512)) return Backend::kAvx512;
  if (backend_available(Backend::kAvx2)) return Backend::kAvx2;
  if (backend_available(Backend::kNeon)) return Backend::kNeon;
  return Backend::kScalar;
}

const char* backend_name(Backend backend) noexcept {
  switch (backend) {
    case Backend::kScalar:
      return "scalar";
    case Backend::kAvx2:
      return "avx2";
    case Backend::kAvx512:
      return "avx512";
    case Backend::kNeon:
      return "neon";
  }
  return "scalar";
}

namespace {

Backend resolve_initial_backend() noexcept {
  const char* env = std::getenv("NETADV_SIMD");
  if (env != nullptr && std::strcmp(env, "off") == 0) return Backend::kScalar;
  const struct {
    const char* name;
    Backend backend;
  } forced[] = {{"avx2", Backend::kAvx2},
                {"avx512", Backend::kAvx512},
                {"neon", Backend::kNeon}};
  for (const auto& f : forced) {
    if (env == nullptr || std::strcmp(env, f.name) != 0) continue;
    if (!backend_available(f.backend)) {
      bool compiled = false, cpu_ok = false;
      switch (f.backend) {
        case Backend::kAvx2:
          compiled = avx2_compiled();
          cpu_ok = avx2_runtime_supported();
          break;
        case Backend::kAvx512:
          compiled = avx512_compiled();
          cpu_ok = avx512_runtime_supported();
          break;
        case Backend::kNeon:
          compiled = neon_compiled();
          cpu_ok = neon_runtime_supported();
          break;
        case Backend::kScalar:
          break;
      }
      const Backend fallback = best_backend();
      util::log_warn(
          "NETADV_SIMD=%s requested but %s; falling back to %s kernels",
          f.name,
          !compiled ? "that backend was compiled out"
          : !cpu_ok ? "the CPU does not support that ISA"
                    : "that backend is unavailable",
          backend_name(fallback));
      return fallback;
    }
    return f.backend;
  }
  if (env != nullptr && std::strcmp(env, "auto") != 0 &&
      std::strcmp(env, "") != 0) {
    util::log_warn(
        "NETADV_SIMD='%s' not recognized (off | avx2 | avx512 | neon | "
        "auto); using auto",
        env);
  }
  return best_backend();
}

std::atomic<Backend>& backend_slot() noexcept {
  static std::atomic<Backend> slot{resolve_initial_backend()};
  return slot;
}

}  // namespace

Backend active_backend() noexcept {
  return backend_slot().load(std::memory_order_relaxed);
}

const char* backend_name() noexcept { return backend_name(active_backend()); }

Backend set_backend(Backend backend) noexcept {
  if (!backend_available(backend)) backend = Backend::kScalar;
  backend_slot().store(backend, std::memory_order_relaxed);
  return backend;
}

void gemv(std::span<const double> w, std::size_t rows, std::size_t cols,
          std::span<const double> x, std::span<const double> b,
          std::span<double> y) {
  switch (active_backend()) {
    case Backend::kAvx512:
      return avx512::gemv(w, rows, cols, x, b, y);
    case Backend::kAvx2:
      return avx2::gemv(w, rows, cols, x, b, y);
    case Backend::kNeon:
      return neon::gemv(w, rows, cols, x, b, y);
    case Backend::kScalar:
      return scalar::gemv(w, rows, cols, x, b, y);
  }
}

void gemm(std::span<const double> w, std::size_t rows, std::size_t cols,
          std::span<const double> x, std::size_t batch,
          std::span<const double> b, std::span<double> y) {
  switch (active_backend()) {
    case Backend::kAvx512:
      return avx512::gemm(w, rows, cols, x, batch, b, y);
    case Backend::kAvx2:
      return avx2::gemm(w, rows, cols, x, batch, b, y);
    case Backend::kNeon:
      return neon::gemm(w, rows, cols, x, batch, b, y);
    case Backend::kScalar:
      return scalar::gemm(w, rows, cols, x, batch, b, y);
  }
}

void gemm_transposed(std::span<const double> w, std::size_t rows,
                     std::size_t cols, std::span<const double> g,
                     std::size_t ldg, std::size_t batch, std::span<double> y,
                     std::size_t ldy) {
  switch (active_backend()) {
    case Backend::kAvx512:
      return avx512::gemm_transposed(w, rows, cols, g, ldg, batch, y, ldy);
    case Backend::kAvx2:
      return avx2::gemm_transposed(w, rows, cols, g, ldg, batch, y, ldy);
    case Backend::kNeon:
      return neon::gemm_transposed(w, rows, cols, g, ldg, batch, y, ldy);
    case Backend::kScalar:
      return scalar::gemm_transposed(w, rows, cols, g, ldg, batch, y, ldy);
  }
}

void rank_k_update(std::span<double> w, std::size_t rows, std::size_t cols,
                   std::span<const double> g, std::size_t ldg,
                   std::span<const double> x, std::size_t ldx, std::size_t m) {
  switch (active_backend()) {
    case Backend::kAvx512:
      return avx512::rank_k_update(w, rows, cols, g, ldg, x, ldx, m);
    case Backend::kAvx2:
      return avx2::rank_k_update(w, rows, cols, g, ldg, x, ldx, m);
    case Backend::kNeon:
      return neon::rank_k_update(w, rows, cols, g, ldg, x, ldx, m);
    case Backend::kScalar:
      return scalar::rank_k_update(w, rows, cols, g, ldg, x, ldx, m);
  }
}

double dot(std::span<const double> a, std::span<const double> b) {
  switch (active_backend()) {
    case Backend::kAvx512:
      return avx512::dot(a, b);
    case Backend::kAvx2:
      return avx2::dot(a, b);
    case Backend::kNeon:
      return neon::dot(a, b);
    case Backend::kScalar:
      return scalar::dot(a, b);
  }
  return scalar::dot(a, b);
}

}  // namespace netadv::rl::kernels
