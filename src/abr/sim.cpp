#include "abr/sim.hpp"

#include <algorithm>
#include <stdexcept>

namespace netadv::abr {

namespace {

/// Put `value` in front of a newest-first history, dropping the oldest
/// sample once the history holds kHistoryWindow.
void push_front_capped(std::vector<double>& history, double value) {
  if (history.size() < kHistoryWindow) history.push_back(0.0);
  std::copy_backward(history.begin(), history.end() - 1, history.end());
  history.front() = value;
}

}  // namespace

StreamingSession::StreamingSession(const VideoManifest& manifest)
    : manifest_(&manifest) {
  obs_.throughput_history_mbps.reserve(kHistoryWindow);
  obs_.download_time_history_s.reserve(kHistoryWindow);
  obs_.next_chunk_sizes_bits.resize(manifest.num_qualities());
  restart();
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
  result.chunk_index = obs_.chunk_index;
  result.quality = quality;
  result.bitrate_mbps = manifest_->bitrate_mbps(quality);
  result.throughput_mbps = bandwidth_mbps;

  const double size_bits = manifest_->chunk_size_bits(obs_.chunk_index, quality);
  const double dt = size_bits / (bandwidth_mbps * 1e6);
  result.download_time_s = dt;

  // Playback consumes buffer while the chunk downloads; a deficit is a stall.
  double& buffer = obs_.buffer_s;
  result.rebuffer_s = std::max(0.0, dt - buffer);
  buffer = std::max(0.0, buffer - dt);
  buffer += manifest_->chunk_duration_s();

  // Client-side pacing: if the buffer would overflow, the client sleeps
  // (network idle) until there is room, as in Pensieve's simulator.
  if (buffer > kMaxBufferS) {
    result.sleep_s = buffer - kMaxBufferS;
    buffer = kMaxBufferS;
  }
  result.buffer_after_s = buffer;
  clock_s_ += dt + result.sleep_s;

  ++obs_.chunk_index;
  --obs_.remaining_chunks;
  obs_.last_quality = quality;
  obs_.last_bitrate_mbps = result.bitrate_mbps;
  push_front_capped(obs_.throughput_history_mbps, bandwidth_mbps);
  push_front_capped(obs_.download_time_history_s, dt);
  fill_next_chunk_sizes();
  return result;
}

void StreamingSession::restart() {
  obs_.chunk_index = 0;
  obs_.remaining_chunks = manifest_->num_chunks();
  obs_.buffer_s = 0.0;
  obs_.last_quality = 0;
  obs_.last_bitrate_mbps = manifest_->bitrate_mbps(0);
  obs_.throughput_history_mbps.clear();
  obs_.download_time_history_s.clear();
  fill_next_chunk_sizes();
  clock_s_ = 0.0;
}

void StreamingSession::fill_next_chunk_sizes() {
  const bool ended = finished();
  for (std::size_t q = 0; q < obs_.next_chunk_sizes_bits.size(); ++q) {
    obs_.next_chunk_sizes_bits[q] =
        ended ? 0.0 : manifest_->chunk_size_bits(obs_.chunk_index, q);
  }
}

}  // namespace netadv::abr
