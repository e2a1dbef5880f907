#include "abr/protocol.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace netadv::abr {

AbrObservationTracker::AbrObservationTracker(const VideoManifest& manifest,
                                             std::size_t history_window)
    : manifest_(&manifest), history_window_(history_window) {
  if (history_window == 0) {
    throw std::invalid_argument{"AbrObservationTracker: zero history window"};
  }
  obs_.last_quality = 0;
  obs_.last_bitrate_mbps = manifest.bitrate_mbps(0);
  obs_.remaining_chunks = manifest.num_chunks();
  obs_.next_chunk_sizes_bits = manifest.chunk_sizes_bits(0);
}

void AbrObservationTracker::sync_session(std::size_t next_chunk,
                                         std::size_t remaining,
                                         double buffer_s) {
  obs_.chunk_index = next_chunk;
  obs_.remaining_chunks = remaining;
  obs_.buffer_s = buffer_s;
  // Filled in place: this runs once per chunk on every playback path.
  const bool ended = next_chunk >= manifest_->num_chunks();
  obs_.next_chunk_sizes_bits.resize(manifest_->num_qualities());
  for (std::size_t q = 0; q < obs_.next_chunk_sizes_bits.size(); ++q) {
    obs_.next_chunk_sizes_bits[q] =
        ended ? 0.0 : manifest_->chunk_size_bits(next_chunk, q);
  }
}

void AbrObservationTracker::on_chunk(std::size_t quality, double bitrate_mbps,
                                     double throughput_mbps,
                                     double download_time_s) {
  obs_.last_quality = quality;
  obs_.last_bitrate_mbps = bitrate_mbps;
  obs_.throughput_history_mbps.insert(obs_.throughput_history_mbps.begin(),
                                      throughput_mbps);
  if (obs_.throughput_history_mbps.size() > history_window_) {
    obs_.throughput_history_mbps.resize(history_window_);
  }
  obs_.download_time_history_s.insert(obs_.download_time_history_s.begin(),
                                      download_time_s);
  if (obs_.download_time_history_s.size() > history_window_) {
    obs_.download_time_history_s.resize(history_window_);
  }
}

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
