// The online ABR adversary environment (Section 3).
//
// The RL agent *is the network*: each step it picks the link bandwidth for
// the next video chunk (0.8-4.8 Mbps), the target ABR protocol reacts, and
// the adversary is rewarded per Equation 1 with
//   r_opt        = highest possible QoE over the last 4 network changes,
//   r_protocol   = the target's QoE over those same 4 changes,
//   p_smoothing  = |bw_t - bw_{t-1}|.
// Its observation is the history of the last 10 per-chunk tuples
// (previous bitrate, buffer occupancy, next-chunk sizes, remaining chunks,
// last throughput, last download time) — exactly the paper's feature list.
#pragma once

#include <cstddef>
#include <deque>
#include <vector>

#include "abr/optimal.hpp"
#include "abr/protocol.hpp"
#include "abr/qoe.hpp"
#include "abr/sim.hpp"
#include "abr/video.hpp"
#include "core/reward.hpp"
#include "rl/env.hpp"

namespace netadv::core {

class AbrAdversaryEnv final : public rl::Env {
 public:
  /// What the adversary can see. kFull is the paper's online adversary;
  /// kTimeOnly observes only playback progress — an open-loop, time-indexed
  /// policy standing in for the trace-based formulation of Section 2.1
  /// (bench_ablation_online compares the two).
  enum class ObsMode { kFull, kTimeOnly };

  /// What the adversary optimizes (Section 5, "Different adversarial
  /// goals"). kQoeRegret is the paper's Equation-1 objective; kRebuffering
  /// rewards stall time it induces beyond what an optimal controller would
  /// have suffered.
  enum class Goal { kQoeRegret, kRebuffering };

  struct Params {
    ObsMode obs_mode = ObsMode::kFull;
    Goal goal = Goal::kQoeRegret;
    double bandwidth_min_mbps = 0.8;
    double bandwidth_max_mbps = 4.8;
    std::size_t opt_window = 4;        ///< r_opt lookback (network changes)
    std::size_t history = 10;          ///< observations in the state
    double smoothing_weight = 1.0;     ///< scales |bw_t - bw_{t-1}|
    abr::QoeParams qoe{};
  };

  /// `protocol` must outlive the environment.
  AbrAdversaryEnv(abr::VideoManifest manifest, abr::AbrProtocol& protocol)
      : AbrAdversaryEnv(std::move(manifest), protocol, Params{}) {}
  AbrAdversaryEnv(abr::VideoManifest manifest, abr::AbrProtocol& protocol,
                  Params params);

  std::string name() const override { return "abr-adversary"; }
  std::size_t observation_size() const override;
  rl::ActionSpec action_spec() const override;
  rl::Vec reset(util::Rng& rng) override;
  rl::StepResult step(const rl::Vec& action, util::Rng& rng) override;

  /// Decomposed reward of the most recent step (for tests/diagnostics).
  const AdversaryReward& last_reward() const noexcept { return last_reward_; }
  /// Bandwidths chosen so far this episode — the adversarial trace.
  const std::vector<double>& episode_bandwidths() const noexcept {
    return episode_bandwidths_;
  }
  /// Qualities the target picked this episode.
  const std::vector<std::size_t>& episode_qualities() const noexcept {
    return episode_qualities_;
  }
  /// Client buffer after each chunk this episode.
  const std::vector<double>& episode_buffers() const noexcept {
    return episode_buffers_;
  }
  /// Stall time incurred by each chunk this episode.
  const std::vector<double>& episode_rebuffers() const noexcept {
    return episode_rebuffers_;
  }
  const abr::VideoManifest& manifest() const noexcept { return manifest_; }
  const Params& params() const noexcept { return params_; }
  double chunk_duration_s() const noexcept {
    return manifest_.chunk_duration_s();
  }

 private:
  /// Snapshot of protocol state just before a chunk, for the r_opt window.
  struct WindowEntry {
    std::size_t chunk = 0;
    double buffer_before_s = 0.0;
    double prev_bitrate_mbps = 0.0;
    double bandwidth_mbps = 0.0;
    std::size_t quality = 0;
  };

  std::size_t tuple_size() const noexcept {
    return 5 + manifest_.num_qualities();
  }
  rl::Vec flatten_history() const;
  /// Shift the history one tuple back, dropping the oldest, and write the
  /// newest tuple in front: the chunk just played, the buffer it left, the
  /// session's next-chunk sizes (Mbit; zeros once the video ends) and
  /// remaining share, and the chunk's throughput and download time.
  void push_tuple(double prev_bitrate_mbps, double buffer_s,
                  double throughput_mbps, double download_time_s);

  abr::VideoManifest manifest_;
  abr::AbrProtocol* protocol_;
  Params params_;

  abr::StreamingSession session_;
  abr::AbrObservationTracker tracker_;
  rl::ActionSpec action_spec_;
  // The kFull observation: params_.history tuples of tuple_size() values,
  // most recent first, zero-padded; overwritten in place each step.
  rl::Vec history_;
  std::deque<WindowEntry> window_;
  // window_'s bandwidths and qualities as contiguous spans for the reward
  // oracles, resized in place each step.
  std::vector<double> window_bandwidths_;
  std::vector<std::size_t> window_qualities_;
  std::vector<double> episode_bandwidths_;
  std::vector<std::size_t> episode_qualities_;
  std::vector<double> episode_buffers_;
  std::vector<double> episode_rebuffers_;
  AdversaryReward last_reward_{};
  bool episode_active_ = false;
};

}  // namespace netadv::core
