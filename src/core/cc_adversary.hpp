// The online congestion-control adversary environment (Section 4).
//
// Every 30 ms the agent observes (link utilization, queueing delay) and sets
// the link's (bandwidth, latency, loss rate) within Table 1's ranges:
// bandwidth 6-24 Mbps, latency 15-60 ms, loss 0-10%. Its reward is
//
//     r = 1 - U - L - 0.01 * S
//
// where U is link utilization, L the loss rate it chose, and S a smoothing
// factor from the distance between the current bandwidth/latency and
// exponentially-weighted moving averages of both.
#pragma once

#include <cstdint>
#include <memory>

#include "cc/link.hpp"
#include "cc/multiflow.hpp"
#include "cc/sender.hpp"
#include "core/reward.hpp"
#include "rl/env.hpp"

namespace netadv::core {

class CcAdversaryEnv final : public rl::Env {
 public:
  /// What the adversary optimizes (Section 5, "Different adversarial
  /// goals"). kUnderutilization is the paper's r = 1 - U - L - 0.01 S;
  /// kCongestion instead rewards the queueing delay the target inflicts on
  /// the path ("finding conditions in which the protocol causes the highest
  /// amount of congestion").
  enum class Goal { kUnderutilization, kCongestion };

  struct Params {
    Goal goal = Goal::kUnderutilization;
    // Table 1 action ranges.
    double bandwidth_min_mbps = 6.0;
    double bandwidth_max_mbps = 24.0;
    double latency_min_ms = 15.0;
    double latency_max_ms = 60.0;
    double loss_min = 0.0;
    double loss_max = 0.10;

    double epoch_s = 0.030;            ///< adversary action granularity
    double episode_duration_s = 30.0;  ///< Figure 5's trace length
    double smoothing_coefficient = 0.01;
    double ewma_alpha = 0.1;           ///< EWMA used inside S
    /// Queue-delay observation scale (seconds -> O(1) feature).
    double queue_delay_scale_s = 0.25;
    cc::LinkSim::Params link{};
  };

  /// `factory` builds a fresh target sender per episode (default: BBR).
  CcAdversaryEnv() : CcAdversaryEnv(Params{}, nullptr) {}
  explicit CcAdversaryEnv(Params params, cc::SenderFactory factory = nullptr);

  std::string name() const override { return "cc-adversary"; }
  std::size_t observation_size() const override { return 2; }
  rl::ActionSpec action_spec() const override;
  rl::Vec reset(util::Rng& rng) override;
  rl::StepResult step(const rl::Vec& action, util::Rng& rng) override;

  const AdversaryReward& last_reward() const noexcept { return last_reward_; }
  const Params& params() const noexcept { return params_; }
  /// Live access to the flow under attack (for the Figure-5/6 recorders).
  cc::CcSender* sender() noexcept { return sender_.get(); }
  /// The latest epoch of the one-flow runner: flows[0] is the target.
  const cc::MultiFlowRunner::Interval& last_interval() const noexcept {
    return last_interval_;
  }
  std::size_t epochs_per_episode() const noexcept {
    return static_cast<std::size_t>(params_.episode_duration_s /
                                    params_.epoch_s + 0.5);
  }

 private:
  rl::Vec observe() const;

  Params params_;
  cc::SenderFactory factory_;

  std::unique_ptr<cc::CcSender> sender_;
  std::unique_ptr<cc::MultiFlowRunner> runner_;
  std::size_t epoch_index_ = 0;
  cc::MultiFlowRunner::Interval last_interval_{};
  AdversaryReward last_reward_{};

  // Smoothing-factor EWMAs over *normalized* bandwidth/latency so S is
  // dimensionless and the 0.01 coefficient is meaningful.
  double ewma_bw_norm_ = 0.0;
  double ewma_lat_norm_ = 0.0;
  bool ewma_initialized_ = false;
};

}  // namespace netadv::core
