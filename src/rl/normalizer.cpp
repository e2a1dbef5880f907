#include "rl/normalizer.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace netadv::rl {

namespace {
constexpr double kEps = 1e-8;
}

RunningNormalizer::RunningNormalizer(std::size_t dims, double clip)
    : mean_(dims, 0.0), m2_(dims, 0.0), std_(dims, 0.0), clip_(clip) {
  if (dims == 0) throw std::invalid_argument{"RunningNormalizer dims must be > 0"};
  refresh_std();
}

void RunningNormalizer::refresh_std() {
  for (std::size_t i = 0; i < std_.size(); ++i) {
    const double var =
        count_ < 2 ? 1.0 : m2_[i] / static_cast<double>(count_ - 1);
    std_[i] = std::sqrt(var + kEps);
  }
}

void RunningNormalizer::update(const Vec& x) {
  if (x.size() != mean_.size()) {
    throw std::invalid_argument{"RunningNormalizer::update: size mismatch"};
  }
  ++count_;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double delta = x[i] - mean_[i];
    mean_[i] += delta / static_cast<double>(count_);
    m2_[i] += delta * (x[i] - mean_[i]);
  }
  refresh_std();
}

Vec RunningNormalizer::normalize(const Vec& x) const {
  if (x.size() != mean_.size()) {
    throw std::invalid_argument{"RunningNormalizer::normalize: size mismatch"};
  }
  Vec out(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    out[i] = std::clamp((x[i] - mean_[i]) / std_[i], -clip_, clip_);
  }
  return out;
}

Vec RunningNormalizer::variance() const {
  Vec var(mean_.size(), 1.0);
  if (count_ >= 2) {
    for (std::size_t i = 0; i < var.size(); ++i) {
      var[i] = m2_[i] / static_cast<double>(count_ - 1);
    }
  }
  return var;
}

void RunningNormalizer::restore(Vec mean, Vec variance, std::size_t count) {
  if (mean.size() != mean_.size() || variance.size() != mean_.size()) {
    throw std::invalid_argument{"RunningNormalizer::restore: size mismatch"};
  }
  mean_ = std::move(mean);
  count_ = count;
  if (count_ < 2) {
    // With fewer than two samples Welford has accumulated no squared
    // deviations: m2_ is identically 0 (variance() returned a placeholder 1
    // that never came from m2_). Restoring variance * 1 here used to plant
    // a spurious 1.0 that contaminated variance() once count_ reached 2.
    for (auto& m2 : m2_) m2 = 0.0;
  } else {
    const auto n = static_cast<double>(count_ - 1);
    for (std::size_t i = 0; i < m2_.size(); ++i) m2_[i] = variance[i] * n;
  }
  refresh_std();
}

void RunningNormalizer::restore_moments(Vec mean, Vec m2, std::size_t count) {
  if (mean.size() != mean_.size() || m2.size() != mean_.size()) {
    throw std::invalid_argument{
        "RunningNormalizer::restore_moments: size mismatch"};
  }
  mean_ = std::move(mean);
  m2_ = std::move(m2);
  count_ = count;
  refresh_std();
}

ReturnNormalizer::ReturnNormalizer(double gamma, double clip)
    : gamma_(gamma), clip_(clip) {}

double ReturnNormalizer::normalize(double reward, bool done) {
  running_return_ = gamma_ * running_return_ + reward;
  ++count_;
  const double delta = running_return_ - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (running_return_ - mean_);
  const double var = count_ < 2 ? 1.0 : m2_ / static_cast<double>(count_ - 1);
  const double scaled = reward / std::sqrt(var + kEps);
  if (done) running_return_ = 0.0;
  return std::clamp(scaled, -clip_, clip_);
}

}  // namespace netadv::rl
