#include "abr/sim.hpp"

#include <algorithm>
#include <stdexcept>

namespace netadv::abr {

StreamingSession::StreamingSession(const VideoManifest& manifest, Params params)
    : manifest_(&manifest), params_(params) {
  if (params_.max_buffer_s <= 0.0) {
    throw std::invalid_argument{"StreamingSession: bad parameters"};
  }
}

DownloadResult StreamingSession::download_next(std::size_t quality,
                                               double bandwidth_mbps) {
  if (finished()) throw std::logic_error{"StreamingSession: video finished"};
  if (quality >= manifest_->num_qualities()) {
    throw std::invalid_argument{"StreamingSession: bad quality"};
  }
  if (bandwidth_mbps <= 0.0) {
    throw std::invalid_argument{"StreamingSession: bandwidth must be > 0"};
  }

  DownloadResult result;
  result.chunk_index = next_chunk_;
  result.quality = quality;
  result.bitrate_mbps = manifest_->bitrate_mbps(quality);
  result.throughput_mbps = bandwidth_mbps;

  const double size_bits = manifest_->chunk_size_bits(next_chunk_, quality);
  const double dt = size_bits / (bandwidth_mbps * 1e6);
  result.download_time_s = dt;

  // Playback consumes buffer while the chunk downloads; a deficit is a stall.
  result.rebuffer_s = std::max(0.0, dt - buffer_s_);
  buffer_s_ = std::max(0.0, buffer_s_ - dt);
  buffer_s_ += manifest_->chunk_duration_s();

  // Client-side pacing: if the buffer would overflow, the client sleeps
  // (network idle) until there is room, as in Pensieve's simulator.
  if (buffer_s_ > params_.max_buffer_s) {
    result.sleep_s = buffer_s_ - params_.max_buffer_s;
    buffer_s_ = params_.max_buffer_s;
  }
  result.buffer_after_s = buffer_s_;

  clock_s_ += dt + result.sleep_s;
  ++next_chunk_;
  return result;
}

void StreamingSession::restart() {
  next_chunk_ = 0;
  buffer_s_ = 0.0;
  clock_s_ = 0.0;
}

}  // namespace netadv::abr
