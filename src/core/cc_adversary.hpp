// The online congestion-control adversary environment (Section 4).
//
// Every 30 ms the agent observes (link utilization, queueing delay) and sets
// the link's (bandwidth, latency, loss rate) within Table 1's ranges:
// bandwidth 6-24 Mbps, latency 15-60 ms, loss 0-10% (the control loop is
// core::LinkControl, shared with the fairness env). Its reward is
//
//     r = 1 - U - L - 0.01 * S
//
// where U is link utilization, L the loss rate it chose, and S a smoothing
// factor from the distance between the current bandwidth/latency and
// exponentially-weighted moving averages of both.
#pragma once

#include <cstdint>
#include <memory>

#include "cc/multiflow.hpp"
#include "cc/sender.hpp"
#include "core/link_control.hpp"
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

  /// Table-1 ranges, episode shape and S settings live in the base.
  struct Params : LinkControl::Params {
    Goal goal = Goal::kUnderutilization;
  };

  /// `factory` builds a fresh target sender per episode (default: BBR).
  CcAdversaryEnv() : CcAdversaryEnv(Params{}, nullptr) {}
  explicit CcAdversaryEnv(Params params, cc::SenderFactory factory = nullptr);

  std::string name() const override { return "cc-adversary"; }
  std::size_t observation_size() const override { return 2; }
  rl::ActionSpec action_spec() const override { return link_.action_spec(); }
  rl::Vec reset(util::Rng& rng) override;
  rl::StepResult step(const rl::Vec& action, util::Rng& rng) override;

  const AdversaryReward& last_reward() const noexcept { return last_reward_; }
  const Params& params() const noexcept { return params_; }
  /// Live access to the flow under attack (for the Figure-5/6 recorders).
  cc::CcSender* sender() noexcept { return sender_.get(); }
  /// The latest epoch of the one-flow runner: flows[0] is the target.
  const cc::MultiFlowRunner::Interval& last_interval() const noexcept {
    return link_.last_interval();
  }
  std::size_t epochs_per_episode() const noexcept {
    return link_.epochs_per_episode();
  }

 private:
  rl::Vec observe() const;

  Params params_;
  LinkControl link_;
  cc::SenderFactory factory_;

  std::unique_ptr<cc::CcSender> sender_;
  AdversaryReward last_reward_{};
};

}  // namespace netadv::core
