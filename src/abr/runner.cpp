#include "abr/runner.hpp"

#include <algorithm>
#include <stdexcept>

namespace netadv::abr {

double bandwidth_for_chunk(const trace::Trace& trace, std::size_t index) {
  if (trace.empty()) throw std::invalid_argument{"bandwidth_for_chunk: empty trace"};
  const std::size_t i = std::min(index, trace.size() - 1);
  return trace[i].bandwidth_mbps;
}

PlaybackRecord run_playback(AbrProtocol& protocol,
                            const VideoManifest& manifest,
                            const trace::Trace& trace, const QoeParams& qoe) {
  protocol.begin_video(manifest);
  StreamingSession session{manifest};

  PlaybackRecord record;
  record.chunks.reserve(manifest.num_chunks());

  while (!session.finished()) {
    const std::size_t quality = protocol.choose_quality(session.observation());
    if (quality >= manifest.num_qualities()) {
      throw std::logic_error{"run_playback: protocol returned bad quality"};
    }
    const double bandwidth = bandwidth_for_chunk(trace, session.next_chunk());
    record.chunks.push_back(session.download_next(quality, bandwidth));
  }

  std::vector<double> bitrates;
  std::vector<double> rebuffers;
  bitrates.reserve(record.chunks.size());
  rebuffers.reserve(record.chunks.size());
  double bitrate_sum = 0.0;
  for (std::size_t i = 0; i < record.chunks.size(); ++i) {
    const DownloadResult& c = record.chunks[i];
    bitrates.push_back(c.bitrate_mbps);
    rebuffers.push_back(c.rebuffer_s);
    record.total_rebuffer_s += c.rebuffer_s;
    bitrate_sum += c.bitrate_mbps;
    if (i > 0 && record.chunks[i].quality != record.chunks[i - 1].quality) {
      ++record.quality_switches;
    }
  }
  record.total_qoe = total_qoe(bitrates, rebuffers, qoe);
  record.mean_chunk_qoe =
      record.total_qoe / static_cast<double>(record.chunks.size());
  record.mean_bitrate_mbps =
      bitrate_sum / static_cast<double>(record.chunks.size());
  return record;
}

std::vector<double> qoe_per_trace(AbrProtocol& protocol,
                                  const VideoManifest& manifest,
                                  const std::vector<trace::Trace>& traces,
                                  const QoeParams& qoe) {
  std::vector<double> result;
  result.reserve(traces.size());
  for (const auto& t : traces) {
    // Per-chunk mean QoE keeps numbers comparable across videos of different
    // lengths (the paper's Figure 1 axis is per-video QoE on one video, so
    // the scale is a constant factor).
    result.push_back(run_playback(protocol, manifest, t, qoe).mean_chunk_qoe);
  }
  return result;
}

std::vector<double> qoe_per_trace(const ProtocolFactory& make_protocol,
                                  const VideoManifest& manifest,
                                  const std::vector<trace::Trace>& traces,
                                  const QoeParams& qoe,
                                  util::ThreadPool* pool) {
  return util::parallel_map(pool, traces.size(), [&](std::size_t i) {
    const std::unique_ptr<AbrProtocol> protocol = make_protocol();
    if (!protocol) {
      throw std::invalid_argument{"qoe_per_trace: factory returned null"};
    }
    return run_playback(*protocol, manifest, traces[i], qoe).mean_chunk_qoe;
  });
}

}  // namespace netadv::abr
