// Chunk-level streaming simulator — a C++ port of the dynamics of
// Pensieve's sim.py, which the paper uses for both training and testing:
// each chunk download takes size/throughput seconds, the playback buffer
// drains in real time during downloads (stalling when it empties), gains one
// chunk duration per completed chunk, and the client pauses requests when
// the buffer would exceed its cap.
#pragma once

#include <cstddef>
#include <vector>

#include "abr/video.hpp"

namespace netadv::abr {

/// Everything that happened while fetching one chunk.
struct DownloadResult {
  std::size_t chunk_index = 0;
  std::size_t quality = 0;
  double bitrate_mbps = 0.0;
  double download_time_s = 0.0;
  double throughput_mbps = 0.0;  ///< link bandwidth seen by this download
  double rebuffer_s = 0.0;       ///< stall incurred while fetching this chunk
  double sleep_s = 0.0;          ///< client pause because the buffer was full
  double buffer_after_s = 0.0;   ///< playback buffer after the chunk arrived
};

/// One video playback in progress. The caller picks a quality and supplies
/// the link bandwidth in effect for that download (per-chunk network
/// conditions — exactly the adversary's action granularity in Section 3).
class StreamingSession {
 public:
  struct Params {
    double max_buffer_s = 60.0;
  };

  explicit StreamingSession(const VideoManifest& manifest)
      : StreamingSession(manifest, Params{}) {}
  StreamingSession(const VideoManifest& manifest, Params params);

  bool finished() const noexcept { return next_chunk_ >= manifest_->num_chunks(); }
  std::size_t next_chunk() const noexcept { return next_chunk_; }
  std::size_t remaining_chunks() const noexcept {
    return manifest_->num_chunks() - next_chunk_;
  }
  double buffer_s() const noexcept { return buffer_s_; }
  double clock_s() const noexcept { return clock_s_; }
  const VideoManifest& manifest() const noexcept { return *manifest_; }

  /// Download the next chunk at `quality` over a link of `bandwidth_mbps`.
  /// Throws std::logic_error if the video already finished and
  /// std::invalid_argument on a bad quality or non-positive bandwidth.
  DownloadResult download_next(std::size_t quality, double bandwidth_mbps);

  /// Reset to the start of the video.
  void restart();

 private:
  const VideoManifest* manifest_;
  Params params_;
  std::size_t next_chunk_ = 0;
  double buffer_s_ = 0.0;
  double clock_s_ = 0.0;
};

}  // namespace netadv::abr
