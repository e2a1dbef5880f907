#include "rl/mlp.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "rl/kernels.hpp"

namespace netadv::rl {

Mlp::Mlp(std::vector<std::size_t> sizes, double final_gain, util::Rng& rng)
    : sizes_(std::move(sizes)) {
  if (sizes_.size() < 2) throw std::invalid_argument{"Mlp needs >= 2 layer sizes"};
  for (std::size_t s : sizes_) {
    if (s == 0) throw std::invalid_argument{"Mlp layer size must be > 0"};
  }

  std::size_t offset = 0;
  for (std::size_t i = 0; i + 1 < sizes_.size(); ++i) {
    Layer l;
    l.in = sizes_[i];
    l.out = sizes_[i + 1];
    l.w_offset = offset;
    offset += l.in * l.out;
    l.b_offset = offset;
    offset += l.out;
    l.d_offset = delta_size_;
    delta_size_ += l.out;
    layers_.push_back(l);
  }
  params_.assign(offset, 0.0);
  grads_.assign(offset, 0.0);

  // Xavier-uniform initialization; the final (linear) layer additionally
  // scaled by final_gain so policy heads start near-deterministic-uniform.
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    const Layer& l = layers_[i];
    const bool last = (i + 1 == layers_.size());
    const double limit = std::sqrt(6.0 / static_cast<double>(l.in + l.out)) *
                         (last ? final_gain : 1.0);
    auto w = weight(l);
    for (auto& value : w) value = rng.uniform(-limit, limit);
    // Biases start at zero (already the case from assign()).
  }
}

void Mlp::Arena::reset(const Mlp& net, std::size_t rows) {
  sizes_ = net.sizes_;
  rows_ = rows;
  in_.clear();
  pre_.clear();
  std::size_t offset = 0;
  for (const Layer& l : net.layers_) {
    in_.push_back(offset);
    offset += rows * l.in;
    pre_.push_back(offset);
    offset += rows * l.out;
  }
  data_.resize(offset);
}

void Mlp::Arena::set_input(std::size_t k, std::span<const double> input) {
  if (k >= rows_ || input.size() != sizes_.front()) {
    throw std::invalid_argument{
        "Mlp::Arena::set_input: row out of range or wrong input size"};
  }
  std::copy(input.begin(), input.end(),
            row(in_.front(), k, input.size()).begin());
}

void Mlp::check_arena(const Arena& arena, const char* where) const {
  if (arena.sizes_ != sizes_) {
    throw std::invalid_argument{std::string{"Mlp::"} + where +
                                ": arena not laid out for this network"};
  }
}

void Mlp::forward_rows(Arena& arena, std::size_t begin, std::size_t end) const {
  check_arena(arena, "forward_rows");
  if (begin > end || end > arena.rows_) {
    throw std::invalid_argument{"Mlp::forward_rows: rows out of range"};
  }
  const std::size_t n = end - begin;
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    const Layer& l = layers_[i];
    const std::span<double> z{arena.row(arena.pre_[i], begin, l.out).data(),
                              n * l.out};
    kernels::gemm(weight(l), l.out, l.in,
                  {arena.row(arena.in_[i], begin, l.in).data(), n * l.in}, n,
                  bias(l), z);
    if (i + 1 < layers_.size()) {
      double* const a = arena.row(arena.in_[i + 1], begin, l.out).data();
      for (std::size_t j = 0; j < z.size(); ++j) a[j] = std::tanh(z[j]);
    }
  }
}

void Mlp::backward_rows(const Arena& arena, std::size_t lo, std::size_t hi,
                        std::span<double> deltas) const {
  check_arena(arena, "backward_rows");
  if (lo > hi || hi > arena.rows_) {
    throw std::logic_error{"Mlp::backward_rows: rows not in the arena"};
  }
  if (deltas.size() != arena.rows_ * delta_size_) {
    throw std::invalid_argument{"Mlp::backward_rows: wrong delta buffer size"};
  }
  if (lo == hi) return;
  // The output layer is linear: its dLoss/dPre is the caller's dLoss/dOutput,
  // already in each record's tail. Each layer below gets W^T delta (one
  // gemm_transposed over the block's records) scaled by tanh's gradient
  // 1 - a*a at the layer's output a.
  const std::size_t n = hi - lo;
  double* const records = deltas.data() + lo * delta_size_;
  const std::size_t last = (n - 1) * delta_size_;  // the last record's start
  for (std::size_t idx = layers_.size() - 1; idx > 0; --idx) {
    const Layer& l = layers_[idx];
    const std::size_t below = layers_[idx - 1].d_offset;
    kernels::gemm_transposed(weight(l), l.out, l.in,
                             {records + l.d_offset, last + l.out}, delta_size_,
                             n, {records + below, last + l.in}, delta_size_);
    for (std::size_t k = lo; k < hi; ++k) {
      double* const d = deltas.data() + k * delta_size_ + below;
      const auto a = arena.row(arena.in_[idx], k, l.in);
      for (std::size_t j = 0; j < l.in; ++j) d[j] *= 1.0 - a[j] * a[j];
    }
  }
}

void Mlp::accumulate_rows(std::size_t row_begin, std::size_t row_end,
                          std::span<const double> deltas, const Arena& arena,
                          std::span<double> grads) const {
  check_arena(arena, "accumulate_rows");
  if (row_begin > row_end || row_end > delta_size_ ||
      deltas.size() != arena.rows_ * delta_size_ ||
      grads.size() != params_.size()) {
    throw std::invalid_argument{"Mlp::accumulate_rows: bad block"};
  }
  const std::size_t m = arena.rows_;
  if (m == 0) return;
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    const Layer& l = layers_[i];
    const std::size_t lo = std::max(row_begin, l.d_offset);
    const std::size_t hi = std::min(row_end, l.d_offset + l.out);
    if (lo >= hi) continue;
    const std::size_t rows = hi - lo;
    const std::size_t r0 = lo - l.d_offset;
    const std::span<const double> d = deltas.subspan(lo);
    kernels::rank_k_update(
        {grads.data() + l.w_offset + r0 * l.in, rows * l.in}, rows, l.in, d,
        delta_size_, {arena.row(arena.in_[i], 0, l.in).data(), m * l.in},
        l.in, m);
    double* const b = grads.data() + l.b_offset + r0;
    for (std::size_t j = 0; j < rows; ++j) {
      double sum = b[j];
      for (std::size_t k = 0; k < m; ++k) sum += d[k * delta_size_ + j];
      b[j] = sum;
    }
  }
}

void Mlp::zero_grad() noexcept {
  for (auto& g : grads_) g = 0.0;
}

}  // namespace netadv::rl
