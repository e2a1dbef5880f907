#include "rl/adam.hpp"

#include <cmath>
#include <stdexcept>

#include "rl/kernels.hpp"

namespace netadv::rl {

Adam::Adam(std::size_t param_count, AdamConfig config)
    : config_(config), m_(param_count, 0.0), v_(param_count, 0.0) {}

void Adam::step(std::span<double> params, std::span<const double> grads) {
  if (params.size() != m_.size() || grads.size() != m_.size()) {
    throw std::invalid_argument{"Adam::step: size mismatch"};
  }
  ++t_;
  const double b1 = config_.beta1;
  const double b2 = config_.beta2;
  const double bias1 = 1.0 - std::pow(b1, static_cast<double>(t_));
  const double bias2 = 1.0 - std::pow(b2, static_cast<double>(t_));
  const double lr = config_.learning_rate;
  for (std::size_t i = 0; i < params.size(); ++i) {
    const double g = grads[i];
    m_[i] = b1 * m_[i] + (1.0 - b1) * g;
    v_[i] = b2 * v_[i] + (1.0 - b2) * g * g;
    const double m_hat = m_[i] / bias1;
    const double v_hat = v_[i] / bias2;
    params[i] -= lr * m_hat / (std::sqrt(v_hat) + config_.epsilon);
  }
}

void Adam::reset() noexcept {
  t_ = 0;
  for (auto& x : m_) x = 0.0;
  for (auto& x : v_) x = 0.0;
}

double clip_grad_norm(std::span<double> grads, double max_norm) {
  const double norm = std::sqrt(kernels::dot(grads, grads));
  if (max_norm <= 0.0 || norm <= max_norm || norm == 0.0) return norm;
  const double scale = max_norm / norm;
  for (auto& g : grads) g *= scale;
  return norm;
}

}  // namespace netadv::rl
