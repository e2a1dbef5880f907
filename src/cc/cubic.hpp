// Loss-based TCP baselines: CUBIC (Ha et al., 2008) and Reno AIMD. The
// paper cites their "trivial weakness to packet loss even as low as 1%"
// (Section 4) as the contrast to BBR; bench_loss_sweep reproduces it.
#pragma once

#include "cc/sender.hpp"

namespace netadv::cc {

class CubicSender final : public CcSender {
 public:
  struct Params {
    double packet_bits = 12000.0;
    double c = 0.4;             ///< CUBIC aggressiveness constant
    double beta = 0.7;          ///< multiplicative-decrease factor
    double initial_cwnd = 10.0; ///< packets
    double initial_ssthresh = 1e9;
    double min_cwnd = 2.0;
    double initial_rtt_s = 0.1;
  };

  CubicSender() : CubicSender(Params{}) {}
  explicit CubicSender(Params params);

  std::string name() const override { return "cubic"; }
  void start(double now_s) override;
  void on_ack(const AckInfo& ack) override;
  void on_loss(const LossInfo& loss) override;
  double pacing_rate_bps() const override;
  double cwnd_packets() const override { return cwnd_; }

  bool in_slow_start() const noexcept { return cwnd_ < ssthresh_; }

 private:
  Params params_;
  double cwnd_ = 10.0;
  double ssthresh_ = 1e9;
  double w_max_ = 0.0;
  double epoch_start_s_ = -1.0;
  double srtt_s_ = 0.1;
  double last_decrease_s_ = -1e9;
  double now_s_ = 0.0;
};

class RenoSender final : public CcSender {
 public:
  struct Params {
    double packet_bits = 12000.0;
    double initial_cwnd = 10.0;
    double initial_ssthresh = 1e9;
    double min_cwnd = 2.0;
    double initial_rtt_s = 0.1;
  };

  RenoSender() : RenoSender(Params{}) {}
  explicit RenoSender(Params params);

  std::string name() const override { return "reno"; }
  void start(double now_s) override;
  void on_ack(const AckInfo& ack) override;
  void on_loss(const LossInfo& loss) override;
  double pacing_rate_bps() const override;
  double cwnd_packets() const override { return cwnd_; }

  bool in_slow_start() const noexcept { return cwnd_ < ssthresh_; }

 private:
  Params params_;
  double cwnd_ = 10.0;
  double ssthresh_ = 1e9;
  double srtt_s_ = 0.1;
  double last_decrease_s_ = -1e9;
};

}  // namespace netadv::cc
