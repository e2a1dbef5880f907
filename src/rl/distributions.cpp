#include "rl/distributions.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace netadv::rl {

namespace {

constexpr double kLogTwoPi = 1.8378770664093453;  // log(2*pi)

/// probs[i] = exp(logits[i] - max_logit); returns their sum, added in index
/// order (the normalizer softmax and the fused head share).
double shifted_exp(std::span<const double> logits, double max_logit,
                   std::span<double> probs) {
  double sum = 0.0;
  for (std::size_t i = 0; i < logits.size(); ++i) {
    probs[i] = std::exp(logits[i] - max_logit);
    sum += probs[i];
  }
  return sum;
}

}  // namespace

void softmax(std::span<const double> logits, std::span<double> probs) {
  assert(logits.size() == probs.size());
  assert(!logits.empty());
  const double max_logit = *std::max_element(logits.begin(), logits.end());
  const double sum = shifted_exp(logits, max_logit, probs);
  for (auto& p : probs) p /= sum;
}

std::size_t Categorical::sample(std::span<const double> logits,
                                util::Rng& rng) {
  Vec probs(logits.size());
  softmax(logits, probs);
  const double u = rng.uniform();
  double acc = 0.0;
  for (std::size_t i = 0; i < probs.size(); ++i) {
    acc += probs[i];
    if (u < acc) return i;
  }
  return probs.size() - 1;  // guard against rounding
}

std::size_t Categorical::mode(std::span<const double> logits) {
  return static_cast<std::size_t>(
      std::max_element(logits.begin(), logits.end()) - logits.begin());
}

double Categorical::log_prob(std::span<const double> logits,
                             std::size_t action) {
  assert(action < logits.size());
  const double max_logit = *std::max_element(logits.begin(), logits.end());
  double sum = 0.0;
  for (double l : logits) sum += std::exp(l - max_logit);
  return logits[action] - max_logit - std::log(sum);
}

double Categorical::head_log_prob(std::span<const double> logits,
                                  std::size_t action, std::span<double> probs,
                                  double& entropy) {
  assert(action < logits.size() && probs.size() == logits.size());
  const double max_logit = *std::max_element(logits.begin(), logits.end());
  const double sum = shifted_exp(logits, max_logit, probs);
  for (auto& p : probs) p /= sum;
  entropy = 0.0;
  for (double p : probs) {
    if (p > 0.0) entropy -= p * std::log(p);
  }
  return logits[action] - max_logit - std::log(sum);
}

void Categorical::head_grad(std::span<double> probs, std::size_t action,
                            double entropy, double dloss_dlogp,
                            double ent_coef, double scale) {
  assert(action < probs.size());
  for (std::size_t j = 0; j < probs.size(); ++j) {
    const double p = probs[j];
    double logp_grad = -p;
    if (j == action) logp_grad += 1.0;
    const double log_p = p > 0.0 ? std::log(p) : 0.0;
    const double ent_grad = -p * (log_p + entropy);
    probs[j] = (dloss_dlogp * logp_grad - ent_coef * ent_grad) * scale;
  }
}

Vec DiagGaussian::sample(std::span<const double> mean,
                         std::span<const double> log_std, util::Rng& rng) {
  assert(mean.size() == log_std.size());
  Vec action(mean.size());
  for (std::size_t i = 0; i < mean.size(); ++i) {
    action[i] = mean[i] + std::exp(log_std[i]) * rng.normal();
  }
  return action;
}

double DiagGaussian::log_prob(std::span<const double> mean,
                              std::span<const double> log_std,
                              std::span<const double> action) {
  assert(mean.size() == log_std.size() && mean.size() == action.size());
  double logp = 0.0;
  for (std::size_t i = 0; i < mean.size(); ++i) {
    const double std_i = std::exp(log_std[i]);
    const double z = (action[i] - mean[i]) / std_i;
    logp += -0.5 * z * z - log_std[i] - 0.5 * kLogTwoPi;
  }
  return logp;
}

double DiagGaussian::entropy(std::span<const double> log_std) {
  // H = sum_i (log_std_i + 0.5 * log(2*pi*e)).
  double h = 0.0;
  for (double ls : log_std) h += ls + 0.5 * (kLogTwoPi + 1.0);
  return h;
}

void GaussianHead::set_log_std(std::span<const double> log_std) {
  log_std_.assign(log_std.begin(), log_std.end());
  std_.resize(log_std.size());
  var_.resize(log_std.size());
  for (std::size_t i = 0; i < log_std.size(); ++i) {
    std_[i] = std::exp(log_std[i]);
    var_[i] = std::exp(2.0 * log_std[i]);
  }
  entropy_ = DiagGaussian::entropy(log_std);
}

double GaussianHead::log_prob(std::span<const double> mean,
                              std::span<const double> action,
                              std::span<double> diff,
                              std::span<double> z) const {
  assert(mean.size() == log_std_.size() && action.size() == mean.size() &&
         diff.size() == mean.size() && z.size() == mean.size());
  double logp = 0.0;
  for (std::size_t i = 0; i < mean.size(); ++i) {
    diff[i] = action[i] - mean[i];
    z[i] = diff[i] / std_[i];
    logp += -0.5 * z[i] * z[i] - log_std_[i] - 0.5 * kLogTwoPi;
  }
  return logp;
}

void GaussianHead::head_grad(std::span<double> diff, std::span<double> z,
                             double dloss_dlogp, double ent_coef,
                             double scale) const {
  for (std::size_t i = 0; i < diff.size(); ++i) {
    diff[i] = dloss_dlogp * (diff[i] / var_[i]) * scale;
    z[i] = (dloss_dlogp * (z[i] * z[i] - 1.0) - ent_coef) * scale;
  }
}

}  // namespace netadv::rl
