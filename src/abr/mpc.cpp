#include "abr/mpc.hpp"

#include <algorithm>
#include <stdexcept>

namespace netadv::abr {

RobustMpc::RobustMpc(Params params)
    : params_(params), predictor_(params.throughput_window, params.robust) {
  if (params_.horizon == 0 || params_.throughput_window == 0 ||
      params_.max_buffer_s <= 0.0) {
    throw std::invalid_argument{"RobustMpc: bad parameters"};
  }
}

void RobustMpc::begin_video(const VideoManifest& manifest) {
  manifest_ = &manifest;
  predictor_.reset(manifest.bitrate_mbps(0));
  const std::size_t num_q = manifest.num_qualities();
  bitrate_.resize(num_q);
  for (std::size_t q = 0; q < num_q; ++q) {
    bitrate_[q] = manifest.bitrate_mbps(q);
  }
  dt_.resize(std::min(params_.horizon, manifest.num_chunks()) * num_q);
}

double RobustMpc::search(std::size_t depth, double buffer_s,
                         double prev_bitrate_mbps, double qoe,
                         std::size_t* best_quality) const {
  const std::size_t num_q = bitrate_.size();
  const double* dt = &dt_[depth * num_q];
  const bool leaf = depth + 1 == depth_limit_;
  double best = -1e18;
  for (std::size_t q = 0; q < num_q; ++q) {
    const double rebuffer = std::max(0.0, dt[q] - buffer_s);
    double value =
        qoe + chunk_qoe(bitrate_[q], rebuffer, prev_bitrate_mbps, params_.qoe);
    if (!leaf) {
      const double next_buffer = std::min(
          std::max(0.0, buffer_s - dt[q]) + manifest_->chunk_duration_s(),
          params_.max_buffer_s);
      value = search(depth + 1, next_buffer, bitrate_[q], value, nullptr);
    }
    if (value > best) {
      best = value;
      if (best_quality != nullptr) *best_quality = q;
    }
  }
  return best;
}

std::size_t RobustMpc::choose_quality(const AbrObservation& observation) {
  if (manifest_ == nullptr) throw std::logic_error{"RobustMpc: begin_video not called"};
  const std::size_t chunk = observation.chunk_index;
  if (chunk >= manifest_->num_chunks()) {
    throw std::out_of_range{"RobustMpc: chunk index past the end of the video"};
  }

  const double predicted = predictor_.predict(observation);
  const std::size_t num_q = bitrate_.size();
  depth_limit_ = std::min(params_.horizon, manifest_->num_chunks() - chunk);
  for (std::size_t d = 0; d < depth_limit_; ++d) {
    for (std::size_t q = 0; q < num_q; ++q) {
      dt_[d * num_q + q] =
          manifest_->chunk_size_bits(chunk + d, q) / (predicted * 1e6);
    }
  }
  std::size_t best_quality = 0;
  search(0, observation.buffer_s, observation.last_bitrate_mbps, 0.0,
         &best_quality);
  return best_quality;
}

}  // namespace netadv::abr
