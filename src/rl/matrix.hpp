// Dense row-major matrix of doubles, the Vec alias, and the dot product and
// norm the optimizer uses. dot() forwards to the dispatched kernel layer in
// kernels.hpp, which implements the canonical 4-lane accumulation order once
// per backend — bit-identical across backends, thread counts, and ISAs
// (DESIGN.md §7). The MLP calls the kernels directly.
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

/// Dot product; requires equal sizes.
double dot(std::span<const double> a, std::span<const double> b);

/// Euclidean norm.
double l2_norm(std::span<const double> a);

}  // namespace netadv::rl
