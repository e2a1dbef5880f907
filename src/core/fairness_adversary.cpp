#include "core/fairness_adversary.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "cc/bbr.hpp"

namespace netadv::core {

/// The cross-traffic accomplice: a non-congestion-responsive blast source
/// the env gates on/off per epoch, starting in the state `active` (the
/// schedule's first epoch). During "on" stretches it paces at a fixed
/// rate under a fixed window; during "off" stretches its window is zero, so
/// the runner stops scheduling sends while in-flight packets drain normally.
/// Deliberately deaf to ACKs and losses — real bursty cross-traffic (incast
/// waves, UDP blasts) does not back off, which is what makes it useful to an
/// adversary.
class OnOffBlastSender final : public cc::CcSender {
 public:
  OnOffBlastSender(double rate_mbps, double cwnd_packets, bool active)
      : rate_bps_(rate_mbps * 1e6),
        cwnd_packets_(cwnd_packets),
        active_(active) {}

  std::string name() const override { return "cross-blast"; }
  void start(double /*now_s*/) override {}
  void on_ack(const cc::AckInfo& /*ack*/) override {}
  void on_loss(const cc::LossInfo& /*loss*/) override {}
  double pacing_rate_bps() const override { return rate_bps_; }
  double cwnd_packets() const override { return active_ ? cwnd_packets_ : 0.0; }

  void set_active(bool active) noexcept { active_ = active; }

 private:
  double rate_bps_;
  double cwnd_packets_;
  bool active_;
};

FairnessAdversaryEnv::~FairnessAdversaryEnv() = default;

FairnessAdversaryEnv::FairnessAdversaryEnv(
    Params params, std::vector<cc::SenderFactory> factories)
    : params_(params),
      link_(params_, "FairnessAdversaryEnv"),
      factories_(std::move(factories)) {
  const Params& p = params_;
  const ParamCheck check{"FairnessAdversaryEnv"};
  check(p.stagger_s >= 0.0 && std::isfinite(p.stagger_s), "stagger_s",
        p.stagger_s, "is not a finite number >= 0");
  check(p.cross_rate_mbps > 0.0, "cross_rate_mbps", p.cross_rate_mbps, "<= 0");
  check(p.cross_cwnd_packets > 0.0, "cross_cwnd_packets", p.cross_cwnd_packets,
        "<= 0");
  check(p.cross_period_s > 0.0, "cross_period_s", p.cross_period_s, "<= 0");
  check(p.late_join_min_s >= 0.0, "late_join_min_s", p.late_join_min_s, "< 0");
  check(p.late_join_max_s >= p.late_join_min_s, "late_join_max_s",
        p.late_join_max_s, "<", "late_join_min_s", p.late_join_min_s);
  if (factories_.empty()) {
    const auto make_bbr = [] {
      return std::unique_ptr<cc::CcSender>(std::make_unique<cc::BbrSender>());
    };
    factories_ = {make_bbr, make_bbr};
  }
  if (factories_.size() < 2) {
    throw std::invalid_argument{"FairnessAdversaryEnv: need >= 2 flows"};
  }
  for (const auto& f : factories_) {
    if (!f) throw std::invalid_argument{"FairnessAdversaryEnv: null factory"};
  }
}

std::string FairnessAdversaryEnv::name() const {
  switch (params_.scenario) {
    case Scenario::kCrossTraffic:
      return "cross-traffic-adversary";
    case Scenario::kLateJoin:
      return "late-join-adversary";
    case Scenario::kFairness:
      break;
  }
  return "fairness-adversary";
}

std::vector<double> FairnessAdversaryEnv::mix_throughputs() const {
  std::vector<double> tput = link_.last_interval().throughputs_mbps();
  tput.resize(std::min(tput.size(), factories_.size()));
  return tput;
}

rl::Vec FairnessAdversaryEnv::observe() const {
  const cc::MultiFlowRunner::Interval& interval = link_.last_interval();
  const std::vector<double> tput = mix_throughputs();
  double total = 0.0;
  for (double t : tput) total += t;
  // A starved interval has no meaningful share; 0/0 must not reach the
  // policy network. Define it as the fair share 1/n.
  const double share0 = total > 0.0
                            ? tput[0] / total
                            : 1.0 / static_cast<double>(factories_.size());
  // Approximate path queueing from the mix flows' mean RTT above the base
  // RTT. mean_rtt_s is always meaningful (delivery-free intervals carry the
  // previous value, never 0 ms), so every flow contributes.
  const std::size_t n = tput.size();
  double rtt_sum = 0.0;
  for (std::size_t i = 0; i < n; ++i) rtt_sum += interval.flows[i].mean_rtt_s;
  const double base_rtt = 2.0 * params_.link.initial.one_way_delay_ms / 1000.0;
  const double qdelay =
      n > 0 ? std::max(0.0, rtt_sum / static_cast<double>(n) - base_rtt) : 0.0;
  return {share0, interval.aggregate_utilization(),
          std::min(1.0, qdelay / params_.queue_delay_scale_s)};
}

rl::Vec FairnessAdversaryEnv::reset(util::Rng& rng) {
  senders_.clear();
  cross_sender_.reset();
  cross_active_.clear();
  std::vector<cc::CcSender*> raw;
  for (const auto& factory : factories_) {
    senders_.push_back(factory());
    raw.push_back(senders_.back().get());
  }

  std::vector<double> starts;
  late_join_time_s_ = 0.0;
  for (std::size_t i = 0; i < raw.size(); ++i) {
    starts.push_back(static_cast<double>(i) * params_.stagger_s);
  }
  if (params_.scenario == Scenario::kLateJoin) {
    // The last mix flow's arrival is the episode's randomized event; the
    // adversary learns to ambush it.
    late_join_time_s_ = std::min(
        rng.uniform(params_.late_join_min_s, params_.late_join_max_s),
        params_.episode_duration_s);
    starts.back() = late_join_time_s_;
  }
  if (params_.scenario == Scenario::kCrossTraffic) {
    // Draw the whole on/off schedule up front (episode-deterministic): each
    // stretch lasts [0.5, 1.5] x period, starting from a random phase.
    const std::size_t epochs = epochs_per_episode();
    cross_active_.resize(epochs + 1);
    bool on = rng.bernoulli(0.5);
    double until = rng.uniform(0.5, 1.5) * params_.cross_period_s;
    for (std::size_t e = 0; e <= epochs; ++e) {
      const double t = static_cast<double>(e) * params_.epoch_s;
      while (t >= until) {
        on = !on;
        until += rng.uniform(0.5, 1.5) * params_.cross_period_s;
      }
      cross_active_[e] = on ? 1 : 0;
    }
    cross_sender_ = std::make_unique<OnOffBlastSender>(
        params_.cross_rate_mbps, params_.cross_cwnd_packets,
        cross_active_[0] != 0);
    raw.push_back(cross_sender_.get());
    starts.push_back(0.0);
  }
  all_started_at_s_ = 0.0;
  for (std::size_t i = 0; i < factories_.size(); ++i) {
    all_started_at_s_ = std::max(all_started_at_s_, starts[i]);
  }

  link_.reset(std::move(raw), rng(), std::move(starts));
  last_reward_ = AdversaryReward{};
  last_jain_ = 1.0;
  last_victim_util_ = 0.0;
  return observe();
}

rl::StepResult FairnessAdversaryEnv::step(const rl::Vec& action,
                                          util::Rng& /*rng*/) {
  if (cross_sender_ && link_.epoch_index() < cross_active_.size()) {
    cross_sender_->set_active(cross_active_[link_.epoch_index()] != 0);
  }
  const double loss = link_.step(action)[2];
  const cc::MultiFlowRunner::Interval& interval = link_.last_interval();

  // Unfairness of 0 is attainable (fair sharing); the adversary is paid for
  // the gap it opens, Equation-1 style. Before the last mix flow has started
  // the imbalance is structural, not earned, and an interval where the link
  // moved nothing at all offers nothing to divide unfairly — both gate the
  // pay term to its fair value.
  const std::size_t n = factories_.size();
  last_jain_ = cc::jain_fairness_index(mix_throughputs());
  last_victim_util_ = interval.utilization(0);
  // Victim pay term: 1 at the victim's fair share (or above), 0 when fully
  // starved — same scale as the Jain term.
  double victim_term =
      std::min(1.0, static_cast<double>(n) * last_victim_util_);
  if (interval.flows.empty() || interval.aggregate_utilization() <= 0.0 ||
      link_.now_s() <= all_started_at_s_ + params_.epoch_s) {
    last_jain_ = 1.0;  // nothing earned yet
    victim_term = 1.0;
  }
  last_reward_.optimal = 1.0;
  last_reward_.protocol =
      (params_.reward == RewardKind::kVictim ? victim_term : last_jain_) +
      loss;
  last_reward_.smoothing = link_.smoothing_penalty();

  rl::StepResult result;
  result.reward = last_reward_.value();
  result.done = link_.done();
  result.observation = observe();
  return result;
}

std::optional<FairnessAdversaryEnv::Scenario> fairness_scenario_for(
    const std::string& adversary_kind) {
  using Scenario = FairnessAdversaryEnv::Scenario;
  if (adversary_kind == "fairness") return Scenario::kFairness;
  if (adversary_kind == "cross-traffic") return Scenario::kCrossTraffic;
  if (adversary_kind == "late-join") return Scenario::kLateJoin;
  return std::nullopt;
}

FairnessAdversaryEnv::RewardKind parse_fairness_reward(
    const std::string& text) {
  if (text == "jain") return FairnessAdversaryEnv::RewardKind::kJain;
  if (text == "victim") return FairnessAdversaryEnv::RewardKind::kVictim;
  throw std::runtime_error{"unknown fairness reward '" + text +
                           "' (jain | victim)"};
}

}  // namespace netadv::core
