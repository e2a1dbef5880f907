#include "rl/mlp.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>

#include "rl/kernels.hpp"

namespace netadv::rl {

namespace {

double activate(Activation act, double z) noexcept {
  switch (act) {
    case Activation::kTanh:
      return std::tanh(z);
    case Activation::kRelu:
      return z > 0.0 ? z : 0.0;
    case Activation::kIdentity:
      return z;
  }
  return z;
}

/// Derivative expressed in terms of pre-activation z and post-activation a.
double activate_grad(Activation act, double z, double a) noexcept {
  switch (act) {
    case Activation::kTanh:
      return 1.0 - a * a;
    case Activation::kRelu:
      return z > 0.0 ? 1.0 : 0.0;
    case Activation::kIdentity:
      return 1.0;
  }
  return 1.0;
}

}  // namespace

Mlp::Mlp(std::vector<std::size_t> sizes, Activation hidden_activation,
         double final_gain, util::Rng& rng)
    : sizes_(std::move(sizes)), hidden_(hidden_activation) {
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

  ws_.pre.resize(layers_.size());
  ws_.post.resize(layers_.size() + 1);
}

const Vec& Mlp::forward(const Vec& input) { return forward(input, ws_); }

const Vec& Mlp::forward(const Vec& input, Workspace& ws) const {
  if (input.size() != input_size()) {
    throw std::invalid_argument{"Mlp::forward: wrong input size"};
  }
  ws.pre.resize(layers_.size());
  ws.post.resize(layers_.size() + 1);
  ws.post[0] = input;
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    const Layer& l = layers_[i];
    ws.pre[i].assign(l.out, 0.0);
    kernels::gemv(weight(l), l.out, l.in, ws.post[i],
         {params_.data() + l.b_offset, l.out}, ws.pre[i]);
    const bool last = (i + 1 == layers_.size());
    const Activation act = last ? Activation::kIdentity : hidden_;
    ws.post[i + 1].resize(l.out);
    for (std::size_t j = 0; j < l.out; ++j) {
      ws.post[i + 1][j] = activate(act, ws.pre[i][j]);
    }
  }
  return ws.post.back();
}

std::vector<Vec> Mlp::forward_batch(const std::vector<Vec>& inputs,
                                    std::vector<Workspace>* caches) const {
  const std::size_t batch = inputs.size();
  Vec current(batch * input_size());
  for (std::size_t n = 0; n < batch; ++n) {
    if (inputs[n].size() != input_size()) {
      throw std::invalid_argument{"Mlp::forward_batch: wrong input size"};
    }
    std::copy(inputs[n].begin(), inputs[n].end(),
              current.begin() + static_cast<std::ptrdiff_t>(n * input_size()));
  }
  if (caches != nullptr) {
    caches->resize(batch);
    for (std::size_t n = 0; n < batch; ++n) {
      Workspace& ws = (*caches)[n];
      ws.pre.resize(layers_.size());
      ws.post.resize(layers_.size() + 1);
      ws.post[0] = inputs[n];
    }
  }

  for (std::size_t i = 0; i < layers_.size(); ++i) {
    const Layer& l = layers_[i];
    Vec next(batch * l.out);
    kernels::gemm(weight(l), l.out, l.in, current, batch,
         {params_.data() + l.b_offset, l.out}, next);
    if (caches != nullptr) {
      // Record pre-activations before the in-place activation overwrite.
      for (std::size_t n = 0; n < batch; ++n) {
        (*caches)[n].pre[i].assign(
            next.begin() + static_cast<std::ptrdiff_t>(n * l.out),
            next.begin() + static_cast<std::ptrdiff_t>((n + 1) * l.out));
      }
    }
    const bool last = (i + 1 == layers_.size());
    const Activation act = last ? Activation::kIdentity : hidden_;
    if (act != Activation::kIdentity) {
      for (auto& z : next) z = activate(act, z);
    }
    if (caches != nullptr) {
      for (std::size_t n = 0; n < batch; ++n) {
        (*caches)[n].post[i + 1].assign(
            next.begin() + static_cast<std::ptrdiff_t>(n * l.out),
            next.begin() + static_cast<std::ptrdiff_t>((n + 1) * l.out));
      }
    }
    current = std::move(next);
  }

  std::vector<Vec> outputs(batch);
  for (std::size_t n = 0; n < batch; ++n) {
    outputs[n].assign(
        current.begin() + static_cast<std::ptrdiff_t>(n * output_size()),
        current.begin() + static_cast<std::ptrdiff_t>((n + 1) * output_size()));
  }
  return outputs;
}

void Mlp::backward_deltas(const Vec& grad_output, const Workspace& ws,
                          std::span<double> deltas) const {
  if (grad_output.size() != output_size()) {
    throw std::invalid_argument{"Mlp::backward_deltas: wrong gradient size"};
  }
  if (deltas.size() != delta_size_) {
    throw std::invalid_argument{
        "Mlp::backward_deltas: wrong delta buffer size"};
  }
  if (ws.post.size() != layers_.size() + 1) {
    throw std::logic_error{"Mlp::backward_deltas before forward"};
  }
  // The output layer is linear: its dLoss/dPre is grad_output itself. Each
  // layer below gets W^T delta scaled by act'(pre).
  std::copy(grad_output.begin(), grad_output.end(),
            deltas.end() - static_cast<std::ptrdiff_t>(output_size()));
  for (std::size_t idx = layers_.size() - 1; idx > 0; --idx) {
    const Layer& l = layers_[idx];
    const std::span<double> below =
        deltas.subspan(layers_[idx - 1].d_offset, l.in);
    kernels::gemv_transposed(weight(l), l.out, l.in,
                             deltas.subspan(l.d_offset, l.out), below);
    for (std::size_t j = 0; j < l.in; ++j) {
      below[j] *= activate_grad(hidden_, ws.pre[idx - 1][j], ws.post[idx][j]);
    }
  }
}

void Mlp::accumulate_rows(std::size_t row_begin, std::size_t row_end,
                          std::span<const double> deltas,
                          std::span<const Workspace* const> ws,
                          std::span<double> grads) const {
  const auto unforwarded = [&](const Workspace* w) {
    return w->post.size() != layers_.size() + 1;
  };
  if (row_begin > row_end || row_end > delta_size_ ||
      deltas.size() != ws.size() * delta_size_ ||
      grads.size() != params_.size() ||
      std::any_of(ws.begin(), ws.end(), unforwarded)) {
    throw std::invalid_argument{"Mlp::accumulate_rows: bad block"};
  }
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    const Layer& l = layers_[i];
    const std::size_t lo = std::max(row_begin, l.d_offset);
    const std::size_t hi = std::min(row_end, l.d_offset + l.out);
    if (lo >= hi) continue;
    const std::size_t rows = hi - lo;
    const std::size_t r0 = lo - l.d_offset;
    const std::span<double> w{grads.data() + l.w_offset + r0 * l.in,
                              rows * l.in};
    double* const b = grads.data() + l.b_offset + r0;
    for (std::size_t k = 0; k < ws.size(); ++k) {
      const double* d = deltas.data() + k * delta_size_ + lo;
      kernels::rank1_update(w, rows, l.in, {d, rows}, ws[k]->post[i]);
      for (std::size_t j = 0; j < rows; ++j) b[j] += d[j];
    }
  }
}

void Mlp::zero_grad() noexcept {
  for (auto& g : grads_) g = 0.0;
}

}  // namespace netadv::rl
