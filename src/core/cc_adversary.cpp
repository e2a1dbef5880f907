#include "core/cc_adversary.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "cc/bbr.hpp"

namespace netadv::core {

CcAdversaryEnv::CcAdversaryEnv(Params params, cc::SenderFactory factory)
    : params_(params),
      factory_(factory ? std::move(factory) : [] {
        return std::unique_ptr<cc::CcSender>(std::make_unique<cc::BbrSender>());
      }) {
  if (params_.bandwidth_min_mbps <= 0.0 ||
      params_.bandwidth_max_mbps <= params_.bandwidth_min_mbps ||
      params_.latency_min_ms < 0.0 ||
      params_.latency_max_ms < params_.latency_min_ms ||
      params_.loss_min < 0.0 || params_.loss_max > 1.0 ||
      params_.loss_max < params_.loss_min || params_.epoch_s <= 0.0 ||
      // NaN fails every comparison and inf overflows the epoch count.
      !std::isfinite(params_.epoch_s) ||
      !std::isfinite(params_.episode_duration_s) ||
      params_.episode_duration_s < params_.epoch_s) {
    throw std::invalid_argument{"CcAdversaryEnv: bad parameters"};
  }
}

rl::ActionSpec CcAdversaryEnv::action_spec() const {
  return rl::ActionSpec::continuous(
      {params_.bandwidth_min_mbps, params_.latency_min_ms, params_.loss_min},
      {params_.bandwidth_max_mbps, params_.latency_max_ms, params_.loss_max});
}

rl::Vec CcAdversaryEnv::observe() const {
  return {last_interval_.aggregate_utilization(),
          std::min(1.0, last_interval_.flows[0].mean_queue_delay_s /
                            params_.queue_delay_scale_s)};
}

rl::Vec CcAdversaryEnv::reset(util::Rng& rng) {
  sender_ = factory_();
  cc::LinkSim::Params link = params_.link;
  // Episodes start mid-range so the first observation is informative.
  link.initial.bandwidth_mbps =
      0.5 * (params_.bandwidth_min_mbps + params_.bandwidth_max_mbps);
  link.initial.one_way_delay_ms =
      0.5 * (params_.latency_min_ms + params_.latency_max_ms);
  link.initial.loss_rate = 0.0;
  runner_ = std::make_unique<cc::MultiFlowRunner>(
      std::vector<cc::CcSender*>{sender_.get()}, link, rng());
  epoch_index_ = 0;
  last_interval_ = cc::MultiFlowRunner::Interval{};
  last_reward_ = AdversaryReward{};
  ewma_initialized_ = false;

  // Let one epoch elapse under the initial conditions so utilization and
  // queueing delay are defined.
  runner_->run_until(params_.epoch_s);
  last_interval_ = runner_->collect();
  ++epoch_index_;
  return observe();
}

rl::StepResult CcAdversaryEnv::step(const rl::Vec& action, util::Rng& /*rng*/) {
  if (!runner_) throw std::logic_error{"CcAdversaryEnv: step before reset"};

  const rl::Vec physical = action_spec().to_physical(action);
  const double bandwidth = physical[0];
  const double latency = physical[1];
  const double loss = physical[2];

  runner_->set_conditions({bandwidth, latency, loss});
  const double t_end = static_cast<double>(epoch_index_ + 1) * params_.epoch_s;
  runner_->run_until(t_end);
  last_interval_ = runner_->collect();
  ++epoch_index_;

  // Smoothing factor S over normalized knobs (EWMA distance).
  const double bw_norm = (bandwidth - params_.bandwidth_min_mbps) /
                         (params_.bandwidth_max_mbps - params_.bandwidth_min_mbps);
  const double lat_norm =
      params_.latency_max_ms > params_.latency_min_ms
          ? (latency - params_.latency_min_ms) /
                (params_.latency_max_ms - params_.latency_min_ms)
          : 0.0;
  if (!ewma_initialized_) {
    ewma_bw_norm_ = bw_norm;
    ewma_lat_norm_ = lat_norm;
    ewma_initialized_ = true;
  }
  const double smoothing_raw =
      std::abs(bw_norm - ewma_bw_norm_) + std::abs(lat_norm - ewma_lat_norm_);
  ewma_bw_norm_ += params_.ewma_alpha * (bw_norm - ewma_bw_norm_);
  ewma_lat_norm_ += params_.ewma_alpha * (lat_norm - ewma_lat_norm_);

  switch (params_.goal) {
    case Goal::kUnderutilization:
      // r = 1 - U - L - 0.01 * S, cast into the Equation-1 decomposition:
      // the optimum is full utilization (1), the protocol earned U + L'
      // where the adversary is charged for the loss it injected.
      last_reward_.optimal = 1.0;
      last_reward_.protocol = last_interval_.aggregate_utilization() + loss;
      break;
    case Goal::kCongestion:
      // Reward standing queues: optimal behaviour keeps queueing delay at
      // zero, the target "earned" the negated normalized queue it built.
      // Loss injection is still charged so the adversary cannot manufacture
      // congestion signals for free.
      last_reward_.optimal = 0.0;
      last_reward_.protocol = -(last_interval_.flows[0].mean_queue_delay_s /
                                params_.queue_delay_scale_s) +
                              loss;
      break;
  }
  last_reward_.smoothing = params_.smoothing_coefficient * smoothing_raw;

  rl::StepResult result;
  result.reward = last_reward_.value();
  result.done = epoch_index_ >= epochs_per_episode();
  result.observation = observe();
  return result;
}

}  // namespace netadv::core
