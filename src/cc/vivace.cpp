#include "cc/vivace.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace netadv::cc {

VivaceSender::VivaceSender(Params params) : params_(std::move(params)) {
  if (params_.packet_bits <= 0.0 || params_.initial_rate_mbps <= 0.0 ||
      params_.min_rate_mbps <= 0.0 ||
      params_.max_rate_mbps <= params_.min_rate_mbps ||
      params_.probe_epsilon <= 0.0 || params_.probe_epsilon >= 1.0 ||
      params_.utility_exponent <= 0.0 || params_.utility_exponent >= 1.0 ||
      params_.initial_rtt_s <= 0.0) {
    throw std::invalid_argument{"VivaceSender: bad parameters"};
  }
  start(0.0);
}

void VivaceSender::start(double now_s) {
  rate_mbps_ = params_.initial_rate_mbps;
  phase_ = 0;
  current_ = MonitorInterval{};
  current_.start_s = now_s;
  measured_plus_ = MonitorInterval{};
  measured_minus_ = MonitorInterval{};
  srtt_s_ = params_.initial_rtt_s;
  direction_ = 0;
  amplifier_ = 1;
}

double VivaceSender::offered_rate_mbps() const {
  switch (phase_) {
    case 0:
      return rate_mbps_ * (1.0 + params_.probe_epsilon);
    case 1:
      return rate_mbps_ * (1.0 - params_.probe_epsilon);
    default:
      return rate_mbps_;
  }
}

double VivaceSender::utility_of(const MonitorInterval& mi) const {
  if (mi.duration_s <= 0.0 || mi.acked + mi.lost == 0) return 0.0;
  const double delivered_mbps =
      static_cast<double>(mi.acked) * params_.packet_bits / mi.duration_s / 1e6;
  const double loss_rate = static_cast<double>(mi.lost) /
                           static_cast<double>(mi.acked + mi.lost);
  const double rtt_gradient =
      mi.duration_s > 0.0 ? (mi.rtt_last - mi.rtt_first) / mi.duration_s : 0.0;
  return std::pow(std::max(delivered_mbps, 1e-6), params_.utility_exponent) -
         params_.latency_coefficient * delivered_mbps *
             std::max(rtt_gradient, 0.0) -
         params_.loss_coefficient * delivered_mbps * loss_rate;
}

void VivaceSender::finish_window(double now_s) {
  current_.duration_s = now_s - current_.start_s;
  // Stats observed in window k describe the rate offered in window k-1:
  // phase-1 observations belong to the +eps MI, phase-2 to the -eps MI.
  if (phase_ == 1) {
    measured_plus_ = current_;
  } else if (phase_ == 2) {
    measured_minus_ = current_;

    const double u_plus = utility_of(measured_plus_);
    const double u_minus = utility_of(measured_minus_);
    const int better_direction = u_plus >= u_minus ? +1 : -1;

    if (better_direction == direction_) {
      amplifier_ = std::min(amplifier_ + 1,
                            static_cast<int>(params_.max_amplifier));
    } else {
      amplifier_ = 1;
      direction_ = better_direction;
    }
    const double step = params_.step_fraction *
                        static_cast<double>(amplifier_) * rate_mbps_;
    rate_mbps_ = std::clamp(
        rate_mbps_ + static_cast<double>(better_direction) * step,
        params_.min_rate_mbps, params_.max_rate_mbps);
  }

  phase_ = (phase_ + 1) % 3;
  current_ = MonitorInterval{};
  current_.start_s = now_s;
}

void VivaceSender::on_ack(const AckInfo& ack) {
  srtt_s_ = 0.875 * srtt_s_ + 0.125 * ack.rtt_s;
  if (current_.acked == 0 && current_.lost == 0) {
    current_.rtt_first = ack.rtt_s;
  }
  current_.rtt_last = ack.rtt_s;
  ++current_.acked;
  if (ack.ack_time_s - current_.start_s >= srtt_s_) {
    finish_window(ack.ack_time_s);
  }
}

void VivaceSender::on_loss(const LossInfo& loss) {
  ++current_.lost;
  if (loss.detect_time_s - current_.start_s >= srtt_s_) {
    finish_window(loss.detect_time_s);
  }
}

double VivaceSender::pacing_rate_bps() const {
  return std::max(offered_rate_mbps() * 1e6, 1e4);
}

double VivaceSender::cwnd_packets() const {
  // Vivace is rate-based; the window is a generous cap (2x rate * RTT) so
  // pacing, not the window, governs sending.
  return std::max(2.0 * offered_rate_mbps() * 1e6 * srtt_s_ /
                      params_.packet_bits,
                  4.0);
}

}  // namespace netadv::cc
