// The fairness adversary — a Section-5 direction made concrete: learn link
// conditions under which flows sharing the bottleneck diverge, even though
// fair sharing is attainable. Every knob and constraint is the paper's CC
// adversary's (Table 1 ranges, 30-ms epochs, smoothing via EWMAs — the one
// core::LinkControl both envs drive); only the observation and the
// objective change:
//
//     r = unfairness - L - 0.01 * S
//
// where `unfairness` is either 1 - Jain(mix throughputs) (RewardKind::kJain)
// or 1 - n * victim-flow utilization (RewardKind::kVictim, the victim being
// the first flow of the mix). The adversary is paid for the imbalance it
// induces, charged for loss it injects (random loss hits all flows
// symmetrically, so it cannot create unfairness "for free"), and penalized
// for noisy traces. Starved intervals earn nothing: Jain of an all-zero
// throughput vector is 1 (trivially fair) and the victim term is gated when
// the link moved no traffic at all.
//
// Three adversary-facing scenario kinds (the core/registry names):
//   fairness       the flow mix alone, staggered arrivals (the baseline);
//   cross-traffic  the mix plus an on/off bursty non-congestion-responsive
//                  accomplice flow whose burst schedule is drawn per episode;
//   late-join      the mix's last flow arrives at a time drawn uniformly per
//                  episode, so the adversary can ambush the join.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cc/multiflow.hpp"
#include "cc/sender.hpp"
#include "core/link_control.hpp"
#include "core/reward.hpp"
#include "rl/env.hpp"

namespace netadv::core {

class OnOffBlastSender;  // the cross-traffic accomplice (defined in the .cpp)

class FairnessAdversaryEnv final : public rl::Env {
 public:
  /// Which contention story the episode tells (see the header comment).
  enum class Scenario { kFairness, kCrossTraffic, kLateJoin };

  /// What the adversary is paid for: Jain unfairness across the mix, or
  /// suppression of the victim flow (mix flow 0) below its fair share.
  enum class RewardKind { kJain, kVictim };

  /// Table-1 ranges, episode shape and S settings live in the base.
  struct Params : LinkControl::Params {
    /// Flow i starts at i * stagger_s: identical flows on a shared link are
    /// symmetric, so without an offset a single-knob adversary has nothing
    /// to grab; staggering desynchronizes their probing schedules. Reward is
    /// gated to epochs where every flow has started.
    double stagger_s = 5.0;

    Scenario scenario = Scenario::kFairness;
    RewardKind reward = RewardKind::kJain;

    /// kCrossTraffic: the accomplice bursts at `cross_rate_mbps` under a
    /// `cross_cwnd_packets` window, on/off with mean period `cross_period_s`
    /// (each on/off stretch is drawn in [0.5, 1.5] x period at reset, so the
    /// schedule is episode-deterministic but not metronomic).
    double cross_rate_mbps = 24.0;
    double cross_cwnd_packets = 64.0;
    double cross_period_s = 1.0;

    /// kLateJoin: the mix's last flow arrives at U(min, max), drawn per
    /// episode from the reset RNG.
    double late_join_min_s = 2.0;
    double late_join_max_s = 10.0;
  };

  /// `factories` build the competing flows each episode (default: two BBRs).
  FairnessAdversaryEnv() : FairnessAdversaryEnv(Params{}) {}
  explicit FairnessAdversaryEnv(Params params,
                                std::vector<cc::SenderFactory> factories = {});
  ~FairnessAdversaryEnv() override;

  std::string name() const override;
  /// Observation: (flow-0 throughput share of the mix, aggregate
  /// utilization, queueing delay) — what an on-path observer can measure.
  /// Always finite: a starved interval's share is defined as 1/n.
  std::size_t observation_size() const override { return 3; }
  rl::ActionSpec action_spec() const override { return link_.action_spec(); }
  rl::Vec reset(util::Rng& rng) override;
  rl::StepResult step(const rl::Vec& action, util::Rng& rng) override;

  const AdversaryReward& last_reward() const noexcept { return last_reward_; }
  double last_jain() const noexcept { return last_jain_; }
  /// Victim (mix flow 0) share of the link's capacity over the last epoch.
  double last_victim_utilization() const noexcept { return last_victim_util_; }
  /// The whole last interval (per-flow stats include any cross-traffic
  /// accomplice after the first mix_flow_count() entries).
  const cc::MultiFlowRunner::Interval& last_interval() const noexcept {
    return link_.last_interval();
  }
  /// Flows that belong to the competing mix (excludes the accomplice).
  std::size_t mix_flow_count() const noexcept { return factories_.size(); }
  /// kLateJoin: this episode's drawn arrival time; 0 otherwise.
  double late_join_time_s() const noexcept { return late_join_time_s_; }
  /// When the last mix flow starts this episode; the reward is gated (pay
  /// term forced to its fair value) until one epoch after this.
  double all_started_at_s() const noexcept { return all_started_at_s_; }
  const Params& params() const noexcept { return params_; }
  std::size_t epochs_per_episode() const noexcept {
    return link_.epochs_per_episode();
  }

 private:
  rl::Vec observe() const;
  /// Mix-flow throughputs of the last interval (accomplice excluded).
  std::vector<double> mix_throughputs() const;

  Params params_;
  LinkControl link_;
  std::vector<cc::SenderFactory> factories_;

  std::vector<std::unique_ptr<cc::CcSender>> senders_;
  std::unique_ptr<OnOffBlastSender> cross_sender_;
  /// Accomplice on/off state at the start of each epoch, drawn at reset.
  std::vector<char> cross_active_;
  double all_started_at_s_ = 0.0;
  double late_join_time_s_ = 0.0;
  AdversaryReward last_reward_{};
  double last_jain_ = 1.0;
  double last_victim_util_ = 0.0;
};

/// Scenario for a registry adversary-kind name ("fairness", "cross-traffic",
/// "late-join"); nullopt for non-fairness kinds (ppo, cem). The single
/// mapping jobs.cpp and the campaign grid expander both dispatch on.
std::optional<FairnessAdversaryEnv::Scenario> fairness_scenario_for(
    const std::string& adversary_kind);

/// Parse `reward = jain | victim`; throws naming the valid spellings.
FairnessAdversaryEnv::RewardKind parse_fairness_reward(
    const std::string& text);

}  // namespace netadv::core
