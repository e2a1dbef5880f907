// mpc-dp — puffer-style model-predictive control by value iteration over a
// discretized buffer grid (Yan et al., NSDI 2020), optimizing a pluggable
// QoeModel instead of QoE_lin only.
//
// Where RobustMpc (mpc.hpp) enumerates every quality sequence over the
// horizon (Q^H plans), mpc-dp solves the same lookahead as a backward
// dynamic program over (depth, discretized buffer level, previous quality):
// cost per decision is H * levels * Q^2 instead of Q^H, so deeper horizons
// and bigger ladders stay cheap — the per-decision budget that matters when
// one process serves thousands of sessions (serve::SessionEngine). Per
// depth, the download times, quality scores and the Q x Q smoothness
// charges are tabulated once, outside the loop over buffer levels.
//
// The throughput predictor is RobustMpc's (RobustThroughputPredictor):
// harmonic mean of the last `throughput_window` samples, discounted by the
// window's maximum relative prediction error.
#pragma once

#include <cstddef>
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

 private:
  /// Fill dt_ and score_ for `chunk` under the predicted throughput.
  void tabulate_chunk(std::size_t chunk, double predicted_mbps);

  Params params_;
  std::unique_ptr<QoeModel> qoe_;
  const VideoManifest* manifest_ = nullptr;
  RobustThroughputPredictor predictor_;
  // Value-iteration planes and per-depth tables, reused across decisions to
  // avoid per-call allocation on the serving hot path: dt_[q] download
  // time, score_[q] quality score, smooth_[p * Q + q] smoothness charge,
  // base_[q] the level's score before the smoothness charge.
  std::vector<double> value_, next_value_;
  std::vector<double> dt_, score_, smooth_, base_;
};

}  // namespace netadv::abr
