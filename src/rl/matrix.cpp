#include "rl/matrix.hpp"

#include <cmath>

#include "rl/kernels.hpp"

namespace netadv::rl {

// The historical entry points delegate to the dispatched kernel layer
// (kernels.hpp), which owns the canonical accumulation order and the
// backend selection.

void gemv(std::span<const double> w, std::size_t rows, std::size_t cols,
          std::span<const double> x, std::span<const double> b,
          std::span<double> y) {
  kernels::gemv(w, rows, cols, x, b, y);
}

void gemm(std::span<const double> w, std::size_t rows, std::size_t cols,
          std::span<const double> x, std::size_t batch,
          std::span<const double> b, std::span<double> y) {
  kernels::gemm(w, rows, cols, x, batch, b, y);
}

void gemv_transposed(std::span<const double> w, std::size_t rows,
                     std::size_t cols, std::span<const double> g,
                     std::span<double> y) {
  kernels::gemv_transposed(w, rows, cols, g, y);
}

void rank1_update(std::span<double> w, std::size_t rows, std::size_t cols,
                  std::span<const double> g, std::span<const double> x) {
  kernels::rank1_update(w, rows, cols, g, x);
}

double dot(std::span<const double> a, std::span<const double> b) {
  return kernels::dot(a, b);
}

double l2_norm(std::span<const double> a) { return std::sqrt(dot(a, a)); }

}  // namespace netadv::rl
