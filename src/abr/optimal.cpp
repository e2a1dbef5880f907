#include "abr/optimal.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "abr/runner.hpp"

namespace netadv::abr {

namespace {

constexpr double kNegInf = -std::numeric_limits<double>::infinity();
/// Buffer quantization step (s) of optimal_playback's dynamic program.
constexpr double kBufferResolutionS = 0.2;

/// One simulated chunk step shared by all planners.
struct StepOutcome {
  double buffer_after = 0.0;
  double rebuffer = 0.0;
};

StepOutcome simulate_step(const VideoManifest& manifest, std::size_t chunk,
                          std::size_t quality, double bandwidth_mbps,
                          double buffer, double max_buffer_s) {
  const double size_bits = manifest.chunk_size_bits(chunk, quality);
  const double dt = size_bits / (bandwidth_mbps * 1e6);
  StepOutcome out;
  out.rebuffer = std::max(0.0, dt - buffer);
  out.buffer_after =
      next_buffer_s(buffer, dt, manifest.chunk_duration_s(), max_buffer_s);
  return out;
}

}  // namespace

OptimalPlan optimal_playback(const VideoManifest& manifest,
                             const trace::Trace& trace,
                             const OptimalParams& params) {
  if (trace.empty()) throw std::invalid_argument{"optimal_playback: empty trace"};
  if (params.max_buffer_s <= 0.0) {
    throw std::invalid_argument{"optimal_playback: bad parameters"};
  }

  const std::size_t num_q = manifest.num_qualities();
  const std::size_t num_chunks = manifest.num_chunks();
  const auto num_bins =
      static_cast<std::size_t>(params.max_buffer_s / kBufferResolutionS) + 1;

  // Floor quantization keeps the DP's buffer estimate pessimistic, so every
  // plan it proposes is realizable; the reported QoE is recomputed by an
  // exact replay below.
  auto bin_of = [&](double buffer) {
    const auto b =
        static_cast<std::size_t>(std::floor(buffer / kBufferResolutionS));
    return std::min(b, num_bins - 1);
  };
  auto buffer_of = [&](std::size_t bin) {
    return static_cast<double>(bin) * kBufferResolutionS;
  };

  // dp[q][bin]: best QoE after streaming the current chunk at quality q and
  // landing on buffer `bin`. parent[chunk][q][bin]: predecessor (q, bin).
  const std::size_t cells = num_q * num_bins;
  std::vector<double> dp(cells, kNegInf);
  std::vector<double> next(cells, kNegInf);
  std::vector<std::int32_t> parent(num_chunks * cells, -1);
  auto idx = [&](std::size_t q, std::size_t bin) { return q * num_bins + bin; };

  // First chunk: cold start, no smoothness charge.
  {
    const double bw = bandwidth_for_chunk(trace, 0);
    for (std::size_t q = 0; q < num_q; ++q) {
      const StepOutcome out =
          simulate_step(manifest, 0, q, bw, 0.0, params.max_buffer_s);
      const double qoe =
          chunk_qoe(manifest.bitrate_mbps(q), out.rebuffer,
                    manifest.bitrate_mbps(q), params.qoe);
      const std::size_t bin = bin_of(out.buffer_after);
      if (qoe > dp[idx(q, bin)]) dp[idx(q, bin)] = qoe;
    }
  }

  for (std::size_t chunk = 1; chunk < num_chunks; ++chunk) {
    std::fill(next.begin(), next.end(), kNegInf);
    const double bw = bandwidth_for_chunk(trace, chunk);
    for (std::size_t pq = 0; pq < num_q; ++pq) {
      for (std::size_t pbin = 0; pbin < num_bins; ++pbin) {
        const double base = dp[idx(pq, pbin)];
        if (base == kNegInf) continue;
        const double buffer = buffer_of(pbin);
        for (std::size_t q = 0; q < num_q; ++q) {
          const StepOutcome out =
              simulate_step(manifest, chunk, q, bw, buffer, params.max_buffer_s);
          const double qoe =
              base + chunk_qoe(manifest.bitrate_mbps(q), out.rebuffer,
                               manifest.bitrate_mbps(pq), params.qoe);
          const std::size_t bin = bin_of(out.buffer_after);
          if (qoe > next[idx(q, bin)]) {
            next[idx(q, bin)] = qoe;
            parent[chunk * cells + idx(q, bin)] =
                static_cast<std::int32_t>(idx(pq, pbin));
          }
        }
      }
    }
    dp.swap(next);
  }

  // Locate the best terminal cell and walk parents back.
  std::size_t best_cell = 0;
  double best_qoe = kNegInf;
  for (std::size_t cell = 0; cell < cells; ++cell) {
    if (dp[cell] > best_qoe) {
      best_qoe = dp[cell];
      best_cell = cell;
    }
  }

  OptimalPlan plan;
  plan.qualities.assign(num_chunks, 0);
  std::size_t cell = best_cell;
  for (std::size_t chunk = num_chunks; chunk-- > 0;) {
    plan.qualities[chunk] = cell / num_bins;
    if (chunk > 0) {
      const std::int32_t p = parent[chunk * cells + cell];
      if (p < 0) break;  // unreachable by construction
      cell = static_cast<std::size_t>(p);
    }
  }

  // Report the QoE the plan actually earns under exact (unquantized) buffer
  // dynamics; best_qoe is only the DP's pessimistic estimate of it.
  (void)best_qoe;
  double buffer = 0.0;
  double prev_bitrate = manifest.bitrate_mbps(plan.qualities[0]);
  plan.total_qoe = 0.0;
  for (std::size_t chunk = 0; chunk < num_chunks; ++chunk) {
    const double bw = bandwidth_for_chunk(trace, chunk);
    const StepOutcome out = simulate_step(manifest, chunk, plan.qualities[chunk],
                                          bw, buffer, params.max_buffer_s);
    const double bitrate = manifest.bitrate_mbps(plan.qualities[chunk]);
    plan.total_qoe += chunk_qoe(bitrate, out.rebuffer, prev_bitrate, params.qoe);
    buffer = out.buffer_after;
    prev_bitrate = bitrate;
  }
  return plan;
}

double window_qoe(const VideoManifest& manifest, std::size_t start_chunk,
                  double start_buffer_s, double prev_bitrate_mbps,
                  std::span<const std::size_t> qualities,
                  std::span<const double> bandwidths_mbps,
                  const QoeParams& qoe, double max_buffer_s) {
  if (qualities.size() != bandwidths_mbps.size()) {
    throw std::invalid_argument{"window_qoe: size mismatch"};
  }
  double buffer = start_buffer_s;
  double prev = prev_bitrate_mbps;
  double total = 0.0;
  for (std::size_t k = 0; k < qualities.size(); ++k) {
    const std::size_t chunk = start_chunk + k;
    if (chunk >= manifest.num_chunks()) break;
    const StepOutcome out = simulate_step(manifest, chunk, qualities[k],
                                          bandwidths_mbps[k], buffer,
                                          max_buffer_s);
    const double bitrate = manifest.bitrate_mbps(qualities[k]);
    total += chunk_qoe(bitrate, out.rebuffer, prev, qoe);
    buffer = out.buffer_after;
    prev = bitrate;
  }
  return total;
}

namespace {

/// The oracle's per-call tables: dt[depth * Q + q] download time (s) of
/// window chunk `depth` at quality q, and the ladder's bitrate[q].
struct WindowTables {
  const double* dt;
  const double* bitrate;
  std::size_t num_q;
  std::size_t depth;  ///< chunks in the window
  double chunk_s;
  double max_buffer_s;
  const QoeParams& qoe;
};

/// Best QoE of window chunks `depth`.. from `buffer`, summed backward as
/// here + rest; the last chunk's empty rest is the literal 0.0.
double best_window_qoe_rec(const WindowTables& t, std::size_t depth,
                           double buffer, double prev_bitrate) {
  const double* dt = t.dt + depth * t.num_q;
  const bool leaf = depth + 1 == t.depth;
  double best = kNegInf;
  for (std::size_t q = 0; q < t.num_q; ++q) {
    const double bitrate = t.bitrate[q];
    const double rebuffer = std::max(0.0, dt[q] - buffer);
    const double here = chunk_qoe(bitrate, rebuffer, prev_bitrate, t.qoe);
    double rest = 0.0;
    if (!leaf) {
      const double buffer_after =
          next_buffer_s(buffer, dt[q], t.chunk_s, t.max_buffer_s);
      rest = best_window_qoe_rec(t, depth + 1, buffer_after, bitrate);
    }
    best = std::max(best, here + rest);
  }
  return best;
}

}  // namespace

double optimal_window_qoe(const VideoManifest& manifest,
                          std::size_t start_chunk, double start_buffer_s,
                          double prev_bitrate_mbps,
                          std::span<const double> bandwidths_mbps,
                          const QoeParams& qoe, double max_buffer_s) {
  if (bandwidths_mbps.empty()) {
    throw std::invalid_argument{"optimal_window_qoe: empty window"};
  }
  for (double bw : bandwidths_mbps) {
    if (bw <= 0.0) throw std::invalid_argument{"optimal_window_qoe: bad bandwidth"};
  }
  if (start_chunk >= manifest.num_chunks()) return 0.0;
  const std::size_t depth =
      std::min(bandwidths_mbps.size(), manifest.num_chunks() - start_chunk);
  const std::size_t num_q = manifest.num_qualities();
  std::vector<double> tables(depth * num_q + num_q);
  double* dt = tables.data();
  double* bitrate = dt + depth * num_q;
  for (std::size_t q = 0; q < num_q; ++q) bitrate[q] = manifest.bitrate_mbps(q);
  for (std::size_t d = 0; d < depth; ++d) {
    for (std::size_t q = 0; q < num_q; ++q) {
      dt[d * num_q + q] = manifest.chunk_size_bits(start_chunk + d, q) /
                          (bandwidths_mbps[d] * 1e6);
    }
  }
  const WindowTables t{dt, bitrate, num_q, depth, manifest.chunk_duration_s(),
                       max_buffer_s, qoe};
  return best_window_qoe_rec(t, 0, start_buffer_s, prev_bitrate_mbps);
}

}  // namespace netadv::abr
