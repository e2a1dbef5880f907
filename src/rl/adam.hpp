// Adam optimizer over a flat parameter array (Kingma & Ba, 2015), with the
// bias-corrected moment estimates used by stable-baselines' PPO.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace netadv::rl {

struct AdamConfig {
  double learning_rate = 3e-4;
  double beta1 = 0.9;
  double beta2 = 0.999;
  double epsilon = 1e-8;
};

class Adam {
 public:
  Adam(std::size_t param_count, AdamConfig config = {});

  /// Apply one update: params -= lr * m_hat / (sqrt(v_hat) + eps).
  /// `params` and `grads` must both have exactly `param_count` elements.
  void step(std::span<double> params, std::span<const double> grads);

  double learning_rate() const noexcept { return config_.learning_rate; }
  std::size_t step_count() const noexcept { return t_; }
  void reset() noexcept;

 private:
  AdamConfig config_;
  std::vector<double> m_;
  std::vector<double> v_;
  std::size_t t_ = 0;
};

/// Scale `grads` in place so its global L2 norm is at most `max_norm`;
/// returns the pre-clipping norm. No-op when max_norm <= 0.
double clip_grad_norm(std::span<double> grads, double max_norm);

}  // namespace netadv::rl
