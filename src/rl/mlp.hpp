// Fully connected multi-layer perceptron with reverse-mode gradients.
//
// Parameters (weights then biases, layer by layer) live in one contiguous
// vector so the optimizer and the checkpoint code can treat the network as a
// flat parameter array.
//
// Backpropagation has two const halves that threads can run on one shared
// network (parameters are only read): backward_deltas() writes one sample's
// per-layer dLoss/dPre-activation record, and accumulate_rows() *adds* a
// block of gradient rows over many samples in ascending sample order (call
// zero_grad() between minibatches). Disjoint row blocks write disjoint
// gradient elements, and each element gets its adds in sample order
// whatever the split — so the gradient is bit-identical at any thread
// count. PPO's minibatch step uses this pair.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "rl/matrix.hpp"
#include "util/rng.hpp"

namespace netadv::rl {

enum class Activation { kTanh, kRelu, kIdentity };

class Mlp {
 public:
  /// Caller-owned activation caches for the const forward/backward halves.
  /// One Workspace per concurrent task; a Workspace may be reused across
  /// samples (buffers are resized on each forward).
  struct Workspace {
    std::vector<Vec> pre;   ///< per-layer pre-activations z
    std::vector<Vec> post;  ///< per-layer post-activations a (post[0] = input)
  };

  /// `sizes` is {input, hidden..., output}; at least {in, out}.
  /// Hidden layers use `hidden_activation`; the output layer is linear, with
  /// its initial weights scaled by `final_gain` (0.01 is the usual PPO trick
  /// for policy heads; 1.0 for value heads).
  Mlp(std::vector<std::size_t> sizes, Activation hidden_activation,
      double final_gain, util::Rng& rng);

  std::size_t input_size() const noexcept { return sizes_.front(); }
  std::size_t output_size() const noexcept { return sizes_.back(); }
  std::size_t param_count() const noexcept { return params_.size(); }
  std::size_t layer_count() const noexcept { return layers_.size(); }

  /// Forward pass; the returned reference is valid until the next forward().
  const Vec& forward(const Vec& input);

  /// Forward pass into a caller-owned workspace. Const and safe to call from
  /// several threads on the same network at once; the arithmetic (and hence
  /// the result, bit for bit) is identical to the member-cache forward().
  /// The returned reference aliases ws.post.back().
  const Vec& forward(const Vec& input, Workspace& ws) const;

  /// Inference-only batched forward over N inputs via the gemm kernel.
  /// Bit-identical to calling forward() per input (same accumulation order),
  /// but does not touch the member activation cache, so it is const and
  /// safe from several threads on the same network at once.
  ///
  /// When `caches` is non-null it is resized to the batch and filled with
  /// each sample's full activation record — exactly what forward(input,
  /// Workspace&) would have produced, because gemm computes each output
  /// element in the same canonical order as gemv. The caches are valid for
  /// backward_deltas()/accumulate_rows() until the parameters change (track
  /// param_version()); PPO uses this to reuse rollout-time activations in
  /// the minibatch gradient step instead of recomputing forwards.
  std::vector<Vec> forward_batch(const std::vector<Vec>& inputs,
                                 std::vector<Workspace>* caches = nullptr) const;

  /// Length of one sample's delta record: the total output rows of all
  /// layers (layer 0's rows first).
  std::size_t delta_size() const noexcept { return delta_size_; }

  /// Backpropagate `grad_output` against the activations cached in `ws` by
  /// the const forward(), writing every layer's dLoss/dPre-activation into
  /// `deltas` (size delta_size()). Const; thread-safe for distinct `deltas`.
  void backward_deltas(const Vec& grad_output, const Workspace& ws,
                       std::span<double> deltas) const;

  /// Add the weight (delta x input^T, via kernels::rank1_update) and bias
  /// gradients of rows [row_begin, row_end) of the delta record into
  /// `grads` (the grads() layout), over samples k = 0, 1, ... in ascending
  /// order: sample k's delta record starts at deltas[k * delta_size()] and
  /// its activations are *ws[k]. Const; concurrent calls on disjoint row
  /// ranges write disjoint elements of `grads`.
  void accumulate_rows(std::size_t row_begin, std::size_t row_end,
                       std::span<const double> deltas,
                       std::span<const Workspace* const> ws,
                       std::span<double> grads) const;

  void zero_grad() noexcept;

  /// Mutable parameter access. Handing out a writable view means the
  /// parameters MAY change, so this conservatively bumps param_version() —
  /// that one rule keeps every mutation site (optimizer steps, checkpoint
  /// restore, perturbation search) invalidating version-stamped activation
  /// caches without each caller remembering to. Over-invalidation is
  /// harmless: a spurious bump costs one recomputed forward, never a wrong
  /// result.
  std::span<double> params() noexcept {
    ++version_;
    return params_;
  }
  std::span<const double> params() const noexcept { return params_; }
  std::span<double> grads() noexcept { return grads_; }
  std::span<const double> grads() const noexcept { return grads_; }

  /// Monotone counter identifying the current parameter values; bumped by
  /// every mutable params() access. Cached results stamped with this value
  /// (rollout activation caches) are reusable exactly while the stamp still
  /// matches.
  std::uint64_t param_version() const noexcept { return version_; }

  const std::vector<std::size_t>& layer_sizes() const noexcept { return sizes_; }
  Activation hidden_activation() const noexcept { return hidden_; }

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

  std::vector<std::size_t> sizes_;
  Activation hidden_;
  std::vector<Layer> layers_;
  std::vector<double> params_;
  std::vector<double> grads_;
  std::size_t delta_size_ = 0;

  // Starts at 1 so a zero-stamped cache can never accidentally match.
  std::uint64_t version_ = 1;

  // Activation caches of the member forward().
  Workspace ws_;
};

}  // namespace netadv::rl
