// mpc-dp — puffer-style model-predictive control by value iteration over a
// discretized buffer grid (Yan et al., NSDI 2020), optimizing a pluggable
// QoeModel instead of QoE_lin only.
//
// Where RobustMpc (mpc.hpp) searches the quality sequences over the horizon
// (Q^H plans), mpc-dp solves the same lookahead as a backward dynamic
// program over (depth, discretized buffer level, previous quality). Per
// decision, the download times and quality scores of every depth and, per
// depth, the Q x Q smoothness charges are tabulated once, outside the loop
// over buffer levels.
//
// Only the (depth, level) rows the decision can reach are computed. A
// forward pass starts from the continuous buffer at depth 0 and lists,
// depth by depth, the levels the Q rungs lead to; a round-stamped mark
// array keeps each list free of repeats (puffer's curr_round_). The
// backward pass then fills exactly the listed rows, so depth d costs at
// most min(Q^d, levels) rows of Q^2 work instead of `levels` rows — the
// per-decision budget that matters when one process serves thousands of
// sessions (serve::SessionEngine). Each computed cell keeps the full
// table's expression, and every cell a row reads was listed at the next
// depth, so the decisions are those of filling the whole table, bit for
// bit.
//
// The throughput predictor is RobustMpc's (RobustThroughputPredictor):
// harmonic mean of the last `throughput_window` samples, discounted by the
// window's maximum relative prediction error.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "abr/protocol.hpp"
#include "abr/qoe_model.hpp"

namespace netadv::abr {

class MpcDp final : public AbrProtocol {
 public:
  struct Params {
    std::size_t horizon = 5;            ///< lookahead chunks
    std::size_t buffer_levels = 100;    ///< buffer discretization grid
    std::size_t throughput_window = 5;  ///< harmonic-mean window
    double max_buffer_s = 60.0;
  };

  /// Value-table counters summed over every decision since construction.
  /// A row is one (depth, buffer level) of depths 1..H-1, so a decision
  /// with lookahead H has (H - 1) * buffer_levels rows in the full table.
  struct SearchStats {
    std::uint64_t rows = 0;       ///< rows of the full tables
    std::uint64_t evaluated = 0;  ///< of those, reachable and computed
  };

  /// Default: QoE_lin, so `mpc-dp` is directly comparable to `mpc`.
  MpcDp() : MpcDp(Params{}, std::make_unique<LinQoe>()) {}
  MpcDp(Params params, std::unique_ptr<QoeModel> qoe);

  std::string name() const override { return "mpc-dp"; }
  void begin_video(const VideoManifest& manifest) override;
  std::size_t choose_quality(const AbrObservation& observation) override;

  /// The throughput estimate (Mbps) the planner would use now; exposed for
  /// tests and diagnostics, like RobustMpc's.
  double predicted_throughput_mbps(const AbrObservation& observation) const {
    return predictor_.estimate(observation);
  }

  const QoeModel& qoe() const noexcept { return *qoe_; }
  const SearchStats& search_stats() const noexcept { return stats_; }

 private:
  Params params_;
  std::unique_ptr<QoeModel> qoe_;
  const VideoManifest* manifest_ = nullptr;
  RobustThroughputPredictor predictor_;
  // Value-iteration planes and tables, reused across decisions so a
  // decision allocates nothing on the serving hot path:
  // dt_[d * Q + q] download time and score_[d * Q + q] quality score of
  // depth d, smooth_[p * Q + q] one depth's smoothness charge, base_[q] a
  // level's score before the smoothness charge.
  std::vector<double> value_, next_value_;
  std::vector<double> dt_, score_, smooth_, base_;
  // Reachable levels: reach_[reach_begin_[d] .. reach_begin_[d + 1]) lists
  // depth d's, each once; mark_[level] == stamp_ while that list is built.
  std::vector<std::size_t> reach_, reach_begin_;
  std::vector<std::uint64_t> mark_;
  std::uint64_t stamp_ = 0;
  SearchStats stats_;
};

}  // namespace netadv::abr
