// Fully connected multi-layer perceptron with reverse-mode gradients.
//
// Parameters (weights then biases, layer by layer) live in one contiguous
// vector so the optimizer and the checkpoint code can treat the network as a
// flat parameter array.
//
// Every pass runs over an Arena: a flat, row-major activation record of a
// batch of samples (per layer, the pre-activations and the layer's inputs as
// m x width matrices); one observation is a one-row arena. Every method that
// touches an arena is const, so threads share one network and work on
// disjoint rows. forward_rows(), the network's only forward, runs one
// kernels::gemm per layer over a block of rows; backward_rows() writes a
// block of samples' per-layer dLoss/dPre-activation records with one
// kernels::gemm_transposed per layer; accumulate_rows() *adds* a block of
// gradient rows over all the arena's samples in ascending sample order, one
// kernels::rank_k_update per layer slice (call zero_grad() between
// minibatches). Disjoint row blocks write disjoint gradient elements, and
// each element gets its adds in sample order whatever the split — so the
// gradient is bit-identical at any thread count. PPO's minibatch step uses
// this trio.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "rl/matrix.hpp"
#include "util/rng.hpp"

namespace netadv::rl {

class Mlp {
 public:
  /// Per-layer values of a batch of samples, one row per sample: for each
  /// layer, its input rows (layer 0's are the samples' inputs) and its
  /// pre-activation rows, each a row-major rows x width matrix in one flat
  /// buffer. The last layer is linear, so its pre-activations are the
  /// network outputs. Size it with reset(), write the inputs with
  /// set_input(), then fill it with Mlp::forward_rows().
  class Arena {
   public:
    /// Lay out `rows` samples of `net`, reusing the allocation.
    void reset(const Mlp& net, std::size_t rows);

    /// Copy sample k's input row; throws on a row out of range or a wrong
    /// input size.
    void set_input(std::size_t k, std::span<const double> input);
    /// Sample k's network output (valid after forward_rows covered row k).
    std::span<const double> output(std::size_t k) const noexcept {
      return row(pre_.back(), k, sizes_.back());
    }

   private:
    friend class Mlp;
    std::span<double> row(std::size_t offset, std::size_t k,
                          std::size_t width) noexcept {
      return {data_.data() + offset + k * width, width};
    }
    std::span<const double> row(std::size_t offset, std::size_t k,
                                std::size_t width) const noexcept {
      return {data_.data() + offset + k * width, width};
    }

    std::vector<std::size_t> sizes_;  // the network's layer sizes
    std::vector<std::size_t> in_;     // per layer: offset of its input rows
    std::vector<std::size_t> pre_;    // per layer: offset of its pre rows
    std::vector<double> data_;
    std::size_t rows_ = 0;
  };

  /// `sizes` is {input, hidden..., output}; at least {in, out}.
  /// Hidden layers are tanh; the output layer is linear, with its initial
  /// weights scaled by `final_gain` (0.01 is the usual PPO trick for policy
  /// heads; 1.0 for value heads).
  Mlp(std::vector<std::size_t> sizes, double final_gain, util::Rng& rng);

  std::size_t input_size() const noexcept { return sizes_.front(); }
  std::size_t output_size() const noexcept { return sizes_.back(); }
  std::size_t param_count() const noexcept { return params_.size(); }

  /// Forward rows [begin, end) of `arena` (inputs already set) with one
  /// kernels::gemm per layer, tanh on every hidden layer. Each row is
  /// bit-identical whatever block it is forwarded in, because gemm computes
  /// every element in the same canonical order at any batch size.
  /// Const; concurrent calls on disjoint row ranges are safe.
  void forward_rows(Arena& arena, std::size_t begin, std::size_t end) const;

  /// Length of one sample's delta record: the total output rows of all
  /// layers (layer 0's rows first).
  std::size_t delta_size() const noexcept { return delta_size_; }

  /// Backpropagate rows [lo, hi) of `arena`. `deltas` holds one delta
  /// record per arena row (size arena rows x delta_size()); row k's record
  /// starts at deltas[k * delta_size()]. On entry the last output_size()
  /// entries of each record in the block hold dLoss/dOutput — the linear
  /// output layer's delta; every layer below gets its dLoss/dPre-activation
  /// written in front of it, by one kernels::gemm_transposed per layer over
  /// the whole block. Each element is the same fma chain as one sample's
  /// W^T delta. Const; concurrent calls on disjoint row ranges are safe.
  void backward_rows(const Arena& arena, std::size_t lo, std::size_t hi,
                     std::span<double> deltas) const;

  /// Add the weight (delta x input^T) and bias gradients of rows
  /// [row_begin, row_end) of the delta record into `grads` (the grads()
  /// layout), over all the arena's samples k = 0, 1, ... in ascending order:
  /// sample k's delta record starts at deltas[k * delta_size()] and its
  /// layer inputs are the arena's row k. Each layer's slice of the block is
  /// one kernels::rank_k_update (m mul-then-add steps per element, ascending
  /// k); each bias element sums its k terms in the same order. Const;
  /// concurrent calls on disjoint row ranges write disjoint elements of
  /// `grads`.
  void accumulate_rows(std::size_t row_begin, std::size_t row_end,
                       std::span<const double> deltas, const Arena& arena,
                       std::span<double> grads) const;

  void zero_grad() noexcept;

  std::span<double> params() noexcept { return params_; }
  std::span<const double> params() const noexcept { return params_; }
  std::span<double> grads() noexcept { return grads_; }
  std::span<const double> grads() const noexcept { return grads_; }

 private:
  struct Layer {
    std::size_t in = 0;
    std::size_t out = 0;
    std::size_t w_offset = 0;  // rows=out, cols=in
    std::size_t b_offset = 0;
    std::size_t d_offset = 0;  // into one sample's delta record
  };

  std::span<double> weight(const Layer& l) noexcept {
    return {params_.data() + l.w_offset, l.in * l.out};
  }
  std::span<const double> weight(const Layer& l) const noexcept {
    return {params_.data() + l.w_offset, l.in * l.out};
  }
  std::span<const double> bias(const Layer& l) const noexcept {
    return {params_.data() + l.b_offset, l.out};
  }
  /// Throws unless `arena` was laid out for this network's sizes.
  void check_arena(const Arena& arena, const char* where) const;

  std::vector<std::size_t> sizes_;
  std::vector<Layer> layers_;
  std::vector<double> params_;
  std::vector<double> grads_;
  std::size_t delta_size_ = 0;
};

}  // namespace netadv::rl
