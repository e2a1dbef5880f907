// RobustMPC (Yin et al., SIGCOMM 2015) — the model-predictive ABR baseline
// the paper re-implements: predict throughput as the harmonic mean of the
// last 5 samples discounted by the recent maximum prediction error, then
// search bitrate sequences over a lookahead horizon maximizing QoE_lin
// under the predicted throughput, committing only the first choice.
//
// The search is a depth-first recursion over the lookahead that reads two
// tables instead of the manifest: dt_[depth * Q + q], filled once per
// decision with chunk_size_bits(chunk + depth, q) / (predicted * 1e6), and
// the ladder's bitrate_[q]. Each plan's QoE is summed forward in depth
// order and the maximum over leaves is kept, so the choice equals that of
// enumerating all Q^H plans (first maximum wins ties).
//
// Branch and bound makes that search cheaper without changing it. The
// incumbent is the best full-plan value seen so far this decision, seeded
// with the best constant plan. A child subtree is skipped only when its
// partial value plus an upper bound on the rest of the plan, plus a slack
// of 1e-9 of the largest magnitude any term can reach, is strictly below
// the incumbent. The bound drops the smoothness charge (never negative)
// and relaxes the rebuffer term with a Lagrange multiplier: on any path,
// total stall >= sum(dt) - (buffer + (r - 1) * chunk_duration) over the r
// remaining chunks (the max_buffer_s cap only lowers later buffers), so
// for every lambda in [0, rebuffer_penalty]
//   rest <= sum_j max_q(bitrate_q - lambda * dt[j][q])
//           + lambda * (buffer + (r - 1) * chunk_duration).
// Suffix sums of the first term are tabulated per decision for a fixed
// lambda set and the node takes the minimum. A skipped leaf is strictly
// worse than a plan already seen, so the first strict maximum — and the
// committed quality — are those of exhaustive enumeration, bit for bit.
// With a negative penalty the bound does not hold and nothing is pruned.
//
// At chunk 0 the smoothness term is charged against
// observation.last_bitrate_mbps as given (the session reports the lowest
// rung), unlike mpc-dp, which charges none there. This is kept on purpose:
// changing it would move every bench_out golden.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "abr/protocol.hpp"
#include "abr/qoe.hpp"

namespace netadv::abr {

class RobustMpc final : public AbrProtocol {
 public:
  struct Params {
    std::size_t horizon = 5;            ///< lookahead chunks
    std::size_t throughput_window = 5;  ///< harmonic-mean window
    QoeParams qoe{};
    double max_buffer_s = kMaxBufferS;
  };

  /// Search-tree counters summed over every decision since construction.
  /// A node is one (depth, quality) choice of the exhaustive tree, so a
  /// decision with lookahead H counts Q + Q^2 + ... + Q^H nodes.
  struct SearchStats {
    std::uint64_t nodes = 0;   ///< nodes of the exhaustive trees
    std::uint64_t pruned = 0;  ///< of those, skipped by the bound
  };

  RobustMpc() : RobustMpc(Params{}) {}
  explicit RobustMpc(Params params);

  std::string name() const override { return "mpc"; }
  void begin_video(const VideoManifest& manifest) override;
  std::size_t choose_quality(const AbrObservation& observation) override;

  /// The throughput estimate (Mbps) the controller would use now; exposed
  /// for tests and diagnostics.
  double predicted_throughput_mbps(const AbrObservation& observation) const {
    return predictor_.estimate(observation);
  }

  const SearchStats& search_stats() const noexcept { return stats_; }

 private:
  /// Fills the bound tables, the slack and the incumbent for this
  /// decision's dt_ table.
  void prepare_bounds(double buffer_s, double prev_bitrate_mbps);

  /// Best QoE over the unpruned plans for chunks `depth`.. of the
  /// lookahead, given the buffer and bitrate the chunk before left and the
  /// QoE summed so far (-1e18 if every child was pruned). Writes the first
  /// quality reaching it to `best_quality` if set.
  double search(std::size_t depth, double buffer_s, double prev_bitrate_mbps,
                double qoe, std::size_t* best_quality);

  Params params_;
  const VideoManifest* manifest_ = nullptr;
  RobustThroughputPredictor predictor_;
  std::vector<double> dt_;       // [depth * Q + q] download time (s)
  std::vector<double> bitrate_;  // [q] ladder (Mbps)
  std::size_t depth_limit_ = 0;  // this decision's lookahead

  // Branch and bound. Empty lambdas_ turns pruning off.
  std::vector<double> lambdas_;       // multipliers in [0, rebuffer_penalty]
  std::vector<double> bound_;         // [depth * L + l], see prepare_bounds
  std::vector<std::uint64_t> below_;  // [depth] nodes in a depth subtree
  double incumbent_ = 0.0;            // best full-plan value seen
  double slack_ = 0.0;                // absolute rounding allowance
  SearchStats stats_;
};

}  // namespace netadv::abr
