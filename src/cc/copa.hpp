// Copa (Arun & Balakrishnan, NSDI 2018) — the delay-based congestion
// controller the paper lists alongside BBR and PCC Vivace as a modern
// protocol "without as clear weaknesses" (Section 4). Implemented in its
// default (non-competitive) mode:
//
//   * RTTmin over a long window and RTTstanding (min RTT over the last
//     srtt/2) give the queueing-delay estimate d_q = RTTstanding - RTTmin;
//   * the target rate is 1 / (delta * d_q) packets per second;
//   * cwnd moves toward the target by v / (delta * cwnd) per ACK, where the
//     velocity v doubles each RTT the direction persists and resets on a
//     direction change;
//   * packets are paced at ~2x cwnd / RTTstanding to keep the queue smooth.
#pragma once

#include "cc/sender.hpp"
#include "cc/windowed_filter.hpp"

namespace netadv::cc {

class CopaSender final : public CcSender {
 public:
  struct Params {
    double packet_bits = 12000.0;
    double delta = 0.5;            ///< throughput/delay trade-off knob
    double min_rtt_window_s = 10.0;
    double initial_cwnd = 10.0;
    double min_cwnd = 2.0;
    double initial_rtt_s = 0.1;
    double max_velocity = 512.0;
  };

  CopaSender() : CopaSender(Params{}) {}
  explicit CopaSender(Params params);

  std::string name() const override { return "copa"; }
  void start(double now_s) override;
  void on_ack(const AckInfo& ack) override;
  void on_loss(const LossInfo& loss) override;
  double pacing_rate_bps() const override;
  double cwnd_packets() const override { return cwnd_; }

  // Introspection for tests.
  double queuing_delay_s() const noexcept;
  double min_rtt_s() const noexcept { return min_rtt_; }
  double velocity() const noexcept { return velocity_; }

 private:
  Params params_;

  double cwnd_ = 10.0;
  double srtt_s_ = 0.1;
  double min_rtt_ = 0.0;
  double standing_rtt_ = 0.0;
  WindowedFilter min_rtt_filter_{FilterKind::kMin, 10.0};
  WindowedFilter standing_filter_{FilterKind::kMin, 0.05};

  double velocity_ = 1.0;
  int direction_ = 0;            // +1 increasing, -1 decreasing
  double direction_change_t_ = 0.0;
  double now_s_ = 0.0;
};

}  // namespace netadv::cc
