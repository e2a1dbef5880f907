// Dense row-major matrix of doubles plus the handful of BLAS-level-2 kernels
// the MLP needs (gemv, transposed gemv, rank-1 update). The free functions
// here are thin wrappers over the dispatched kernel layer in kernels.hpp,
// which implements the canonical 4-lane accumulation order once per
// backend — bit-identical across backends, thread counts, and ISAs
// (DESIGN.md §7).
#pragma once

#include <cstddef>
#include <span>
#include <stdexcept>
#include <vector>

namespace netadv::rl {

using Vec = std::vector<double>;

class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols)
      : rows_(rows), cols_(cols), data_(rows * cols, 0.0) {}

  std::size_t rows() const noexcept { return rows_; }
  std::size_t cols() const noexcept { return cols_; }
  std::size_t size() const noexcept { return data_.size(); }

  double& operator()(std::size_t r, std::size_t c) noexcept {
    return data_[r * cols_ + c];
  }
  double operator()(std::size_t r, std::size_t c) const noexcept {
    return data_[r * cols_ + c];
  }

  double& at(std::size_t r, std::size_t c) {
    if (r >= rows_ || c >= cols_) throw std::out_of_range{"Matrix::at"};
    return data_[r * cols_ + c];
  }

  std::span<double> flat() noexcept { return data_; }
  std::span<const double> flat() const noexcept { return data_; }

  void fill(double value) noexcept {
    for (auto& x : data_) x = value;
  }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

/// y = W x + b. Requires x.size() == W.cols() (and b.size() == W.rows()).
/// W may be given as a raw span (the MLP stores parameters contiguously).
/// Per row: bias + the canonical 4-lane dot (kernels.hpp).
void gemv(std::span<const double> w, std::size_t rows, std::size_t cols,
          std::span<const double> x, std::span<const double> b,
          std::span<double> y);

/// Batched forward: Y = X W^T + 1 b^T, with X a (batch x cols) row-major
/// block and Y (batch x rows). Each output row uses exactly the gemv
/// accumulation order, so batched inference over N observations is
/// bit-identical to N gemv calls — the property the VecEnv determinism
/// guarantee rests on — while amortizing per-call overhead and reusing W
/// across the batch.
void gemm(std::span<const double> w, std::size_t rows, std::size_t cols,
          std::span<const double> x, std::size_t batch,
          std::span<const double> b, std::span<double> y);

/// y = W^T g — propagates a gradient through a linear layer.
void gemv_transposed(std::span<const double> w, std::size_t rows,
                     std::size_t cols, std::span<const double> g,
                     std::span<double> y);

/// W += g x^T — accumulates the weight gradient of a linear layer.
void rank1_update(std::span<double> w, std::size_t rows, std::size_t cols,
                  std::span<const double> g, std::span<const double> x);

/// Dot product; requires equal sizes.
double dot(std::span<const double> a, std::span<const double> b);

/// Euclidean norm.
double l2_norm(std::span<const double> a);

}  // namespace netadv::rl
