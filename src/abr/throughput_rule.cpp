#include "abr/throughput_rule.hpp"

#include <stdexcept>

namespace netadv::abr {

ThroughputRule::ThroughputRule(Params params) : params_(params) {
  if (params_.window == 0 || params_.safety_factor <= 0.0 ||
      params_.safety_factor > 1.0) {
    throw std::invalid_argument{"ThroughputRule: bad parameters"};
  }
}

void ThroughputRule::begin_video(const VideoManifest& manifest) {
  manifest_ = &manifest;
}

double ThroughputRule::estimate_mbps(const AbrObservation& observation) const {
  if (observation.throughput_history_mbps.empty()) {
    return manifest_ != nullptr ? manifest_->bitrate_mbps(0) : 0.3;
  }
  return harmonic_mean_mbps(observation.throughput_history_mbps,
                            params_.window);
}

std::size_t ThroughputRule::choose_quality(const AbrObservation& observation) {
  if (manifest_ == nullptr) {
    throw std::logic_error{"ThroughputRule: begin_video not called"};
  }
  const double budget = params_.safety_factor * estimate_mbps(observation);
  std::size_t choice = 0;
  for (std::size_t q = 0; q < manifest_->num_qualities(); ++q) {
    if (manifest_->bitrate_mbps(q) <= budget) choice = q;
  }
  return choice;
}

}  // namespace netadv::abr
