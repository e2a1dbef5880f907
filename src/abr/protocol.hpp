// The ABR protocol interface: given what a real player knows at a decision
// point — buffer level, throughput/download history, upcoming chunk sizes —
// pick the next chunk's quality. Implementations: BufferBased (bb.hpp),
// RobustMpc (mpc.hpp), PensievePolicy (pensieve.hpp). Also the throughput
// predictors the rate-driven protocols share. The observation itself is
// kept by the player's StreamingSession (sim.hpp).
#pragma once

#include <cstddef>
#include <deque>
#include <string>
#include <vector>

#include "abr/sim.hpp"
#include "abr/video.hpp"

namespace netadv::abr {

class AbrProtocol {
 public:
  virtual ~AbrProtocol() = default;

  virtual std::string name() const = 0;

  /// Called once before each playback so stateful protocols can reset.
  virtual void begin_video(const VideoManifest& manifest) = 0;

  /// Quality index in [0, manifest.num_qualities()) for the next chunk.
  virtual std::size_t choose_quality(const AbrObservation& observation) = 0;
};

/// Harmonic mean (Mbps) of the newest `window` samples of a newest-first
/// throughput history, the estimate of the rate-driven baselines (Yin et
/// al., SIGCOMM 2015). Requires a non-empty history and window > 0.
double harmonic_mean_mbps(const std::vector<double>& history_mbps,
                          std::size_t window);

/// RobustMPC's throughput predictor, shared by RobustMpc and MpcDp: the
/// harmonic mean, divided by one plus the largest relative error of the last
/// `window` undiscounted predictions against the sample that followed each.
class RobustThroughputPredictor {
 public:
  explicit RobustThroughputPredictor(std::size_t window) : window_(window) {}

  /// New video: forget past errors; predict `cold_start_mbps` until the
  /// first sample arrives (1 Mbps before any reset).
  void reset(double cold_start_mbps);
  /// The prediction for `observation` under the current error window.
  double estimate(const AbrObservation& observation) const;
  /// One decision: score the previous prediction against the newest
  /// sample, then return estimate() and remember this undiscounted mean.
  double predict(const AbrObservation& observation);

 private:
  double discounted(double mean_mbps) const;

  std::size_t window_;
  double cold_start_mbps_ = 1.0;
  std::deque<double> past_errors_;
  double last_mean_mbps_ = 0.0;
  bool has_prediction_ = false;
};

}  // namespace netadv::abr
