#include "abr/protocol.hpp"

#include <algorithm>
#include <cmath>

namespace netadv::abr {

double harmonic_mean_mbps(const std::vector<double>& history_mbps,
                          std::size_t window) {
  const std::size_t n = std::min(window, history_mbps.size());
  double denom = 0.0;
  for (std::size_t i = 0; i < n; ++i) denom += 1.0 / history_mbps[i];
  return static_cast<double>(n) / denom;
}

void RobustThroughputPredictor::reset(double cold_start_mbps) {
  *this = RobustThroughputPredictor{window_};
  cold_start_mbps_ = cold_start_mbps;
}

double RobustThroughputPredictor::estimate(
    const AbrObservation& observation) const {
  const std::vector<double>& history = observation.throughput_history_mbps;
  return history.empty() ? cold_start_mbps_
                         : discounted(harmonic_mean_mbps(history, window_));
}

double RobustThroughputPredictor::discounted(double mean_mbps) const {
  if (past_errors_.empty()) return mean_mbps;
  return mean_mbps /
         (1.0 + *std::max_element(past_errors_.begin(), past_errors_.end()));
}

double RobustThroughputPredictor::predict(const AbrObservation& observation) {
  const std::vector<double>& history = observation.throughput_history_mbps;
  if (history.empty()) return cold_start_mbps_;
  const double actual = history.front();
  if (has_prediction_ && actual > 0.0) {
    past_errors_.push_back(std::abs(last_mean_mbps_ - actual) / actual);
    if (past_errors_.size() > window_) past_errors_.pop_front();
  }
  last_mean_mbps_ = harmonic_mean_mbps(history, window_);
  has_prediction_ = true;
  return discounted(last_mean_mbps_);
}

}  // namespace netadv::abr
