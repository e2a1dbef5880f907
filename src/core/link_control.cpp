#include "core/link_control.hpp"

#include <cmath>
#include <sstream>
#include <stdexcept>
#include <string>

namespace netadv::core {

void ParamCheck::operator()(bool ok, const char* field, double value,
                            const char* rule, const char* other,
                            double other_value) const {
  if (ok) return;
  std::ostringstream message;
  message << who << ": " << field << ' ' << value << ' ' << rule;
  if (other != nullptr) message << ' ' << other << ' ' << other_value;
  throw std::invalid_argument{message.str()};
}

LinkControl::LinkControl(const Params& params, const char* who)
    : params_(params), who_(who) {
  const Params& p = params_;
  const ParamCheck check{who};
  // Each rule is written so NaN fails it; an infinite epoch or episode
  // would overflow the epoch count.
  check(p.bandwidth_min_mbps > 0.0, "bandwidth_min_mbps", p.bandwidth_min_mbps,
        "<= 0");
  check(p.bandwidth_max_mbps > p.bandwidth_min_mbps, "bandwidth_max_mbps",
        p.bandwidth_max_mbps, "<=", "bandwidth_min_mbps", p.bandwidth_min_mbps);
  check(p.latency_min_ms >= 0.0, "latency_min_ms", p.latency_min_ms, "< 0");
  check(p.latency_max_ms >= p.latency_min_ms, "latency_max_ms",
        p.latency_max_ms, "<", "latency_min_ms", p.latency_min_ms);
  check(p.loss_min >= 0.0, "loss_min", p.loss_min, "< 0");
  check(p.loss_max <= 1.0, "loss_max", p.loss_max, "> 1");
  check(p.loss_max >= p.loss_min, "loss_max", p.loss_max, "<", "loss_min",
        p.loss_min);
  check(p.epoch_s > 0.0 && std::isfinite(p.epoch_s), "epoch_s", p.epoch_s,
        "is not a positive finite number");
  check(std::isfinite(p.episode_duration_s), "episode_duration_s",
        p.episode_duration_s, "is not finite");
  check(p.episode_duration_s >= p.epoch_s, "episode_duration_s",
        p.episode_duration_s, "<", "epoch_s", p.epoch_s);
}

rl::ActionSpec LinkControl::action_spec() const {
  return rl::ActionSpec::continuous(
      {params_.bandwidth_min_mbps, params_.latency_min_ms, params_.loss_min},
      {params_.bandwidth_max_mbps, params_.latency_max_ms, params_.loss_max});
}

void LinkControl::reset(std::vector<cc::CcSender*> senders,
                        std::uint64_t seed,
                        std::vector<double> start_times_s) {
  cc::LinkSim::Params link = params_.link;
  link.initial.bandwidth_mbps =
      0.5 * (params_.bandwidth_min_mbps + params_.bandwidth_max_mbps);
  link.initial.one_way_delay_ms =
      0.5 * (params_.latency_min_ms + params_.latency_max_ms);
  link.initial.loss_rate = 0.0;
  runner_ = std::make_unique<cc::MultiFlowRunner>(
      std::move(senders), link, seed, std::move(start_times_s));
  epoch_index_ = 0;
  ewma_initialized_ = false;

  runner_->run_until(params_.epoch_s);
  last_interval_ = runner_->collect();
  ++epoch_index_;
}

rl::Vec LinkControl::step(const rl::Vec& action) {
  if (!runner_) {
    throw std::logic_error{std::string{who_} + ": step before reset"};
  }

  const rl::Vec physical = action_spec().to_physical(action);
  const double bandwidth = physical[0];
  const double latency = physical[1];

  runner_->set_conditions({bandwidth, latency, physical[2]});
  const double t_end = static_cast<double>(epoch_index_ + 1) * params_.epoch_s;
  runner_->run_until(t_end);
  last_interval_ = runner_->collect();
  ++epoch_index_;

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
  smoothing_raw_ =
      std::abs(bw_norm - ewma_bw_norm_) + std::abs(lat_norm - ewma_lat_norm_);
  ewma_bw_norm_ += params_.ewma_alpha * (bw_norm - ewma_bw_norm_);
  ewma_lat_norm_ += params_.ewma_alpha * (lat_norm - ewma_lat_norm_);
  return physical;
}

}  // namespace netadv::core
