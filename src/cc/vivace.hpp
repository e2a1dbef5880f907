// PCC Vivace (Dong et al., NSDI 2018) — the online-learning, utility-driven
// congestion controller the paper names alongside BBR and Copa (Section 4).
//
// Simplified single-flow model of Vivace's control loop:
//  * time is split into monitor intervals (MIs) of ~one RTT;
//  * the sender alternates probing pairs: one MI at rate r(1+eps), one at
//    r(1-eps), computing each MI's utility
//        U(x) = x^t_exp  -  b * x * (d RTT / dt)  -  c * x * loss
//    (throughput reward, latency-gradient penalty, loss penalty);
//  * the rate moves in the direction of higher utility, with Vivace's
//    confidence amplifier (consecutive same-direction moves grow the step).
// Because ACKs lag sends by one RTT, measurements observed during window k
// describe the rate offered in window k-1; the implementation therefore
// runs a three-window pipeline (+eps, -eps, neutral) and evaluates the pair
// one window late, which is the MI-aggregate equivalent of PCC's
// per-packet send-time bookkeeping.
#pragma once

#include <cstdint>

#include "cc/sender.hpp"

namespace netadv::cc {

class VivaceSender final : public CcSender {
 public:
  struct Params {
    double packet_bits = 12000.0;
    double initial_rate_mbps = 2.0;
    double min_rate_mbps = 0.12;
    double max_rate_mbps = 1000.0;
    double probe_epsilon = 0.05;    ///< +-5% probing, Vivace's default
    double utility_exponent = 0.9;  ///< t_exp in x^t_exp
    double latency_coefficient = 900.0;  ///< b (x in Mbps, gradient in s/s)
    double loss_coefficient = 11.35;     ///< c
    double initial_rtt_s = 0.1;
    double step_fraction = 0.05;    ///< base rate step per decision
    double max_amplifier = 6.0;     ///< confidence amplifier cap
  };

  VivaceSender() : VivaceSender(Params{}) {}
  explicit VivaceSender(Params params);

  std::string name() const override { return "vivace"; }
  void start(double now_s) override;
  void on_ack(const AckInfo& ack) override;
  void on_loss(const LossInfo& loss) override;
  double pacing_rate_bps() const override;
  double cwnd_packets() const override;

  // Introspection for tests.
  double base_rate_mbps() const noexcept { return rate_mbps_; }
  int amplifier() const noexcept { return amplifier_; }

 private:
  struct MonitorInterval {
    double start_s = 0.0;
    std::uint64_t acked = 0;
    std::uint64_t lost = 0;
    double rtt_first = 0.0;
    double rtt_last = 0.0;
    double duration_s = 0.0;
  };

  double utility_of(const MonitorInterval& mi) const;
  void finish_window(double now_s);
  double offered_rate_mbps() const;

  Params params_;

  double rate_mbps_ = 2.0;   ///< base rate r
  /// Pipeline phase: 0 sends +eps, 1 sends -eps, 2 sends the base rate.
  /// Stats measured during phase 1 reflect phase 0's sends, and during
  /// phase 2 reflect phase 1's; the pair is evaluated at the end of phase 2.
  int phase_ = 0;
  MonitorInterval current_{};
  MonitorInterval measured_plus_{};   ///< stats attributable to the +eps MI
  MonitorInterval measured_minus_{};  ///< stats attributable to the -eps MI

  double srtt_s_ = 0.1;
  int direction_ = 0;
  int amplifier_ = 1;
};

}  // namespace netadv::cc
