#include "core/cc_adversary.hpp"

#include <algorithm>

#include "cc/bbr.hpp"

namespace netadv::core {

CcAdversaryEnv::CcAdversaryEnv(Params params, cc::SenderFactory factory)
    : params_(params),
      link_(params_, "CcAdversaryEnv"),
      factory_(factory ? std::move(factory) : [] {
        return std::unique_ptr<cc::CcSender>(std::make_unique<cc::BbrSender>());
      }) {}

rl::Vec CcAdversaryEnv::observe() const {
  const cc::MultiFlowRunner::Interval& interval = link_.last_interval();
  return {interval.aggregate_utilization(),
          std::min(1.0, interval.flows[0].mean_queue_delay_s /
                            params_.queue_delay_scale_s)};
}

rl::Vec CcAdversaryEnv::reset(util::Rng& rng) {
  sender_ = factory_();
  link_.reset({sender_.get()}, rng());
  last_reward_ = AdversaryReward{};
  return observe();
}

rl::StepResult CcAdversaryEnv::step(const rl::Vec& action, util::Rng& /*rng*/) {
  const double loss = link_.step(action)[2];
  const cc::MultiFlowRunner::Interval& interval = link_.last_interval();

  switch (params_.goal) {
    case Goal::kUnderutilization:
      // r = 1 - U - L - 0.01 * S, cast into the Equation-1 decomposition:
      // the optimum is full utilization (1), the protocol earned U + L'
      // where the adversary is charged for the loss it injected.
      last_reward_.optimal = 1.0;
      last_reward_.protocol = interval.aggregate_utilization() + loss;
      break;
    case Goal::kCongestion:
      // Reward standing queues: optimal behaviour keeps queueing delay at
      // zero, the target "earned" the negated normalized queue it built.
      // Loss injection is still charged so the adversary cannot manufacture
      // congestion signals for free.
      last_reward_.optimal = 0.0;
      last_reward_.protocol = -(interval.flows[0].mean_queue_delay_s /
                                params_.queue_delay_scale_s) +
                              loss;
      break;
  }
  last_reward_.smoothing = link_.smoothing_penalty();

  rl::StepResult result;
  result.reward = last_reward_.value();
  result.done = link_.done();
  result.observation = observe();
  return result;
}

}  // namespace netadv::core
