// The linear Quality-of-Experience metric from MPC (Yin et al., 2015) that
// the paper adopts (Section 3):
//
//   QoE_lin = sum_i R_i  -  4.3 * sum_i T_i  -  sum_i |R_i - R_{i+1}|
//
// where R_i is the bitrate of chunk i in Mbps and T_i the rebuffering time
// (seconds) incurred by chunk i.
#pragma once

#include <cmath>
#include <cstddef>
#include <span>

namespace netadv::abr {

struct QoeParams {
  double rebuffer_penalty = 4.3;   ///< per second of stall
  double smoothness_penalty = 1.0; ///< per Mbps of bitrate change
};

/// Contribution of a single chunk given the previous chunk's bitrate.
/// For the first chunk pass `prev_bitrate_mbps == bitrate_mbps` (no
/// smoothness charge), matching the QoE_lin sum which only charges
/// transitions between consecutive chunks. Inline so RobustMpc's search
/// can inline it; -ffp-contract=off keeps every inlined copy bit-identical.
inline double chunk_qoe(double bitrate_mbps, double rebuffer_s,
                        double prev_bitrate_mbps,
                        const QoeParams& params = {}) {
  return bitrate_mbps - params.rebuffer_penalty * rebuffer_s -
         params.smoothness_penalty * std::abs(bitrate_mbps - prev_bitrate_mbps);
}

/// QoE_lin of a whole playback from per-chunk bitrates and rebuffer times.
/// Sizes must match and be non-empty.
double total_qoe(std::span<const double> bitrates_mbps,
                 std::span<const double> rebuffer_s,
                 const QoeParams& params = {});

}  // namespace netadv::abr
