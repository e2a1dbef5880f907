// Replays an ABR protocol over a trace (one trace segment per chunk, the
// paper's per-chunk network-change granularity) and collects the per-chunk
// record plus QoE_lin — the measurement core behind Figures 1-4.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <vector>

#include "abr/protocol.hpp"
#include "abr/qoe.hpp"
#include "abr/sim.hpp"
#include "abr/video.hpp"
#include "trace/trace.hpp"
#include "util/thread_pool.hpp"

namespace netadv::abr {

struct PlaybackRecord {
  std::vector<DownloadResult> chunks;
  double total_qoe = 0.0;
  double mean_chunk_qoe = 0.0;
  double total_rebuffer_s = 0.0;
  double mean_bitrate_mbps = 0.0;
  std::size_t quality_switches = 0;
};

/// Bandwidth (Mbps) in effect for chunk `index`: segment `index` of the
/// trace, clamping to the last segment for traces shorter than the video.
double bandwidth_for_chunk(const trace::Trace& trace, std::size_t index);

/// Run one full playback of `manifest` through `protocol` with per-chunk
/// bandwidths taken from `trace`. The protocol sees the session's
/// observation before each chunk.
PlaybackRecord run_playback(AbrProtocol& protocol,
                            const VideoManifest& manifest,
                            const trace::Trace& trace,
                            const QoeParams& qoe = {});

/// QoE of one playback per trace; the CDF inputs of Figure 1.
std::vector<double> qoe_per_trace(AbrProtocol& protocol,
                                  const VideoManifest& manifest,
                                  const std::vector<trace::Trace>& traces,
                                  const QoeParams& qoe = {});

/// Builds a fresh protocol instance per replay task. Must be callable from
/// several threads at once (it only ever constructs new objects), which is
/// what lets each trace replay on its own core without sharing protocol
/// state.
using ProtocolFactory = std::function<std::unique_ptr<AbrProtocol>()>;

/// Parallel qoe_per_trace: replays the traces across `pool` (sequentially
/// when pool is null), one private protocol instance per trace. Results are
/// reduced in trace order, so the output equals the sequential overload for
/// any protocol whose begin_video() fully resets it — and is identical at
/// every thread count.
std::vector<double> qoe_per_trace(const ProtocolFactory& make_protocol,
                                  const VideoManifest& manifest,
                                  const std::vector<trace::Trace>& traces,
                                  const QoeParams& qoe = {},
                                  util::ThreadPool* pool = nullptr);

}  // namespace netadv::abr
