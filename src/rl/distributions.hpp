// Policy heads: categorical (discrete actions, e.g. Pensieve's bitrate
// ladder) and diagonal Gaussian with state-independent learned log-std
// (continuous actions, e.g. the adversary's bandwidth/latency/loss tuple).
//
// Each provides sampling and log-probability for the rollout, and a fused
// PPO loss head (log-prob, entropy and the analytic gradients the update
// needs: d(logp)/d(head inputs) and d(entropy)/d(head inputs)).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "rl/matrix.hpp"
#include "util/rng.hpp"

namespace netadv::rl {

/// Softmax of `logits` written into `probs` (same size), numerically stable.
void softmax(std::span<const double> logits, std::span<double> probs);

/// Categorical distribution over n actions, parameterized by logits.
struct Categorical {
  /// Sample an action index.
  static std::size_t sample(std::span<const double> logits, util::Rng& rng);
  /// Highest-probability action (deterministic policy).
  static std::size_t mode(std::span<const double> logits);
  static double log_prob(std::span<const double> logits, std::size_t action);

  // PPO's loss head, fused around one softmax that serves the log-prob, the
  // entropy and both gradients. Every value keeps the expression and
  // summation order of its textbook formula — log p(a) as in log_prob(),
  // H = -sum_i p_i log p_i, d log p(a)/d logits = onehot(a) - p and
  // dH/dlogit_j = -p_j (log p_j + H) — so the head is bit-identical to
  // evaluating them one by one.

  /// Writes softmax(logits) into `probs`, sets `entropy` to H and returns
  /// log p(action) (bit-identical to log_prob()).
  static double head_log_prob(std::span<const double> logits,
                              std::size_t action, std::span<double> probs,
                              double& entropy);
  /// Turns `probs` (from head_log_prob) in place into the head gradient
  /// (dloss_dlogp * d log p(action)/d logits - ent_coef * dH/d logits) * scale.
  static void head_grad(std::span<double> probs, std::size_t action,
                        double entropy, double dloss_dlogp, double ent_coef,
                        double scale);
};

/// Diagonal Gaussian over R^d. The mean comes from the policy network; the
/// log standard deviations are free parameters owned by the agent (the
/// stable-baselines convention).
struct DiagGaussian {
  static Vec sample(std::span<const double> mean,
                    std::span<const double> log_std, util::Rng& rng);
  static double log_prob(std::span<const double> mean,
                         std::span<const double> log_std,
                         std::span<const double> action);
  static double entropy(std::span<const double> log_std);
};

/// PPO's loss head for a DiagGaussian policy. exp(log_std), exp(2 log_std)
/// and the entropy depend on log_std alone, so set_log_std() computes them
/// once per minibatch; the per-sample calls allocate nothing. Every value
/// keeps the expression of its textbook formula — log p as in
/// DiagGaussian::log_prob(), d log p/d mean_i = (a_i - mean_i) / exp(2
/// log_std_i), d log p/d log_std_i = z_i^2 - 1 and dH/d log_std_i = 1 — so
/// the head is bit-identical to evaluating them one by one.
class GaussianHead {
 public:
  void set_log_std(std::span<const double> log_std);
  double entropy() const noexcept { return entropy_; }

  /// log p(action | mean); leaves action - mean in `diff` and the
  /// standardized residual z in `z` for head_grad().
  double log_prob(std::span<const double> mean, std::span<const double> action,
                  std::span<double> diff, std::span<double> z) const;
  /// Turns log_prob()'s `diff` in place into the mean gradient
  /// dloss_dlogp * d log p/d mean * scale, and `z` into the log_std gradient
  /// (dloss_dlogp * d log p/d log_std - ent_coef * dH/d log_std) * scale.
  void head_grad(std::span<double> diff, std::span<double> z,
                 double dloss_dlogp, double ent_coef, double scale) const;

 private:
  Vec log_std_;
  Vec std_;  // exp(log_std)
  Vec var_;  // exp(2 log_std)
  double entropy_ = 0.0;
};

}  // namespace netadv::rl
