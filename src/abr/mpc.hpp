// RobustMPC (Yin et al., SIGCOMM 2015) — the model-predictive ABR baseline
// the paper re-implements: predict throughput as the harmonic mean of the
// last 5 samples discounted by the recent maximum prediction error, then
// exhaustively search bitrate sequences over a lookahead horizon maximizing
// QoE_lin under the predicted throughput, committing only the first choice.
//
// The search is a depth-first recursion over the lookahead that reads two
// tables instead of the manifest: dt_[depth * Q + q], filled once per
// decision with chunk_size_bits(chunk + depth, q) / (predicted * 1e6), and
// the ladder's bitrate_[q]. Each plan's QoE is summed forward in depth
// order and the maximum over leaves is kept, so the choice equals that of
// enumerating all Q^H plans (first maximum wins ties). The tables are sized
// from the manifest at begin_video and reused.
//
// At chunk 0 the smoothness term is charged against
// observation.last_bitrate_mbps as given (the tracker reports the lowest
// rung), unlike mpc-dp, which charges none there. This is kept on purpose:
// changing it would move every bench_out golden.
#pragma once

#include <cstddef>
#include <vector>

#include "abr/protocol.hpp"
#include "abr/qoe.hpp"

namespace netadv::abr {

class RobustMpc final : public AbrProtocol {
 public:
  struct Params {
    std::size_t horizon = 5;            ///< lookahead chunks
    std::size_t throughput_window = 5;  ///< harmonic-mean window
    bool robust = true;                 ///< discount by past prediction error
    QoeParams qoe{};
    double max_buffer_s = 60.0;
  };

  RobustMpc() : RobustMpc(Params{}) {}
  explicit RobustMpc(Params params);

  std::string name() const override { return params_.robust ? "mpc" : "fastmpc"; }
  void begin_video(const VideoManifest& manifest) override;
  std::size_t choose_quality(const AbrObservation& observation) override;

  /// The throughput estimate (Mbps) the controller would use now; exposed
  /// for tests and diagnostics.
  double predicted_throughput_mbps(const AbrObservation& observation) const {
    return predictor_.estimate(observation);
  }

 private:
  /// Best QoE over every plan for chunks `depth`.. of the lookahead, given
  /// the buffer and bitrate the chunk before left and the QoE summed so
  /// far. Writes the first quality reaching it to `best_quality` if set.
  double search(std::size_t depth, double buffer_s, double prev_bitrate_mbps,
                double qoe, std::size_t* best_quality) const;

  Params params_;
  const VideoManifest* manifest_ = nullptr;
  RobustThroughputPredictor predictor_;
  std::vector<double> dt_;       // [depth * Q + q] download time (s)
  std::vector<double> bitrate_;  // [q] ladder (Mbps)
  std::size_t depth_limit_ = 0;  // this decision's lookahead
};

}  // namespace netadv::abr
