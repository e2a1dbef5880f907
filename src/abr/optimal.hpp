// Offline-optimal ABR given full knowledge of future bandwidth.
//
// Two forms are needed by the paper's framework:
//  * optimal_playback(): dynamic program over the whole video (the "Offline
//    Optimum" line of Figure 3);
//  * optimal_window_qoe(): exact best QoE over a short window of known
//    bandwidths, the r_opt term of the adversary's reward (Equation 1 uses
//    the highest possible QoE over the last 4 network changes).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "abr/qoe.hpp"
#include "abr/video.hpp"
#include "trace/trace.hpp"

namespace netadv::abr {

struct OptimalPlan {
  std::vector<std::size_t> qualities;  ///< one per chunk
  double total_qoe = 0.0;
};

struct OptimalParams {
  QoeParams qoe{};
  double max_buffer_s = 60.0;
};

/// Best-attainable playback for `manifest` when chunk i downloads at the
/// bandwidth of trace segment i (clamped to the last segment).
OptimalPlan optimal_playback(const VideoManifest& manifest,
                             const trace::Trace& trace,
                             const OptimalParams& params = {});

/// Exact (exhaustive) best QoE over `bandwidths.size()` chunks starting at
/// `start_chunk`, from a known starting buffer. `prev_bitrate_mbps` is the
/// bitrate streamed just before the window: the first in-window chunk is
/// charged smoothness against it, matching how the protocol's own QoE over
/// the same window is computed. Window length is capped by the remaining
/// chunks; complexity is num_qualities^window.
double optimal_window_qoe(const VideoManifest& manifest,
                          std::size_t start_chunk, double start_buffer_s,
                          double prev_bitrate_mbps,
                          std::span<const double> bandwidths_mbps,
                          const QoeParams& qoe = {},
                          double max_buffer_s = 60.0);

/// QoE the given quality choices actually earn over the same window and
/// conditions (the r_protocol counterpart of optimal_window_qoe).
double window_qoe(const VideoManifest& manifest, std::size_t start_chunk,
                  double start_buffer_s, double prev_bitrate_mbps,
                  std::span<const std::size_t> qualities,
                  std::span<const double> bandwidths_mbps,
                  const QoeParams& qoe = {}, double max_buffer_s = 60.0);

}  // namespace netadv::abr
