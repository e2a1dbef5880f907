// Chunk-level streaming simulator — a C++ port of the dynamics of
// Pensieve's sim.py, which the paper uses for both training and testing:
// each chunk download takes size/throughput seconds, the playback buffer
// drains in real time during downloads (stalling when it empties), gains one
// chunk duration per completed chunk, and the client pauses requests when
// the buffer would exceed its cap.
//
// The session is also the one owner of what the player knows: it keeps the
// AbrObservation every playback loop (replay, training environments, the
// serving engine) hands its ABR protocol, updated in place by each download.
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

#include "abr/video.hpp"

namespace netadv::abr {

/// Playback buffer cap (s), as in Pensieve's simulator.
inline constexpr double kMaxBufferS = 60.0;

/// Length of the throughput and download-time histories the player
/// presents (Pensieve's k = 8).
inline constexpr std::size_t kHistoryWindow = 8;

/// Buffer (s) after downloading one chunk: it drains for the download time,
/// gains one chunk duration, and is capped at `cap_s`. The one buffer step
/// every planner shares.
inline double next_buffer_s(double buffer_s, double download_s,
                            double chunk_s, double cap_s) {
  return std::min(std::max(0.0, buffer_s - download_s) + chunk_s, cap_s);
}

/// What the player knows when choosing the quality of chunk `chunk_index`.
struct AbrObservation {
  std::size_t chunk_index = 0;
  std::size_t remaining_chunks = 0;
  double buffer_s = 0.0;
  std::size_t last_quality = 0;          ///< quality of the previous chunk
  double last_bitrate_mbps = 0.0;
  /// Most recent first-to-oldest-last window of observed throughputs (Mbps)
  /// and download times (s); empty before the first chunk completes.
  std::vector<double> throughput_history_mbps;
  std::vector<double> download_time_history_s;
  /// Encoded sizes of the upcoming chunk at every quality (bits).
  std::vector<double> next_chunk_sizes_bits;
};

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
  explicit StreamingSession(const VideoManifest& manifest);

  bool finished() const noexcept { return obs_.remaining_chunks == 0; }
  std::size_t next_chunk() const noexcept { return obs_.chunk_index; }
  std::size_t remaining_chunks() const noexcept {
    return obs_.remaining_chunks;
  }
  double buffer_s() const noexcept { return obs_.buffer_s; }
  double clock_s() const noexcept { return clock_s_; }

  /// What the player presents to its ABR logic for the next decision. At
  /// the start of the video: no history, the lowest rung as the last
  /// quality, an empty buffer and chunk 0's sizes. Each download folds in
  /// its quality, bitrate, throughput and download time (histories newest
  /// first, capped at kHistoryWindow); once the video ends the next-chunk
  /// sizes are zeros.
  const AbrObservation& observation() const noexcept { return obs_; }

  /// Download the next chunk at `quality` over a link of `bandwidth_mbps`.
  /// Throws std::logic_error if the video already finished and
  /// std::invalid_argument on a bad quality or non-positive bandwidth.
  DownloadResult download_next(std::size_t quality, double bandwidth_mbps);

  /// Reset to the start of the video.
  void restart();

 private:
  /// Write the next chunk's sizes at every quality (zeros past the end).
  void fill_next_chunk_sizes();

  const VideoManifest* manifest_;
  AbrObservation obs_;
  double clock_s_ = 0.0;
};

}  // namespace netadv::abr
