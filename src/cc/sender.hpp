// The congestion-control sender interface and the feedback it receives.
//
// The simulator models bulk flows over one bottleneck: each sender always
// has data, paces packets at the algorithm's rate subject to its
// congestion window, and learns about deliveries via ACKs and about drops
// via loss notifications delayed by roughly one RTT (the dup-ACK/timeout
// detection delay of a real stack).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

namespace netadv::cc {

/// Feedback delivered to the sender when an ACK returns.
struct AckInfo {
  std::uint64_t packet_id = 0;
  double send_time_s = 0.0;
  double ack_time_s = 0.0;   ///< when the ACK reached the sender
  double rtt_s = 0.0;        ///< ack_time - send_time
  /// Cumulative delivered-packet count and the time of the most recent
  /// delivery *as of when this packet was sent* — the pair BBR's delivery
  /// rate estimator needs (delivered delta over time delta).
  std::uint64_t delivered_at_send = 0;
  double delivered_time_at_send_s = 0.0;
  /// Cumulative delivered count including this packet.
  std::uint64_t delivered = 0;
};

/// Feedback when the stack detects a lost packet (~one RTT after the drop).
struct LossInfo {
  std::uint64_t packet_id = 0;
  double send_time_s = 0.0;
  double detect_time_s = 0.0;
};

class CcSender {
 public:
  virtual ~CcSender() = default;

  virtual std::string name() const = 0;

  /// (Re)initialize for a fresh connection starting at time `now`.
  virtual void start(double now_s) = 0;

  virtual void on_ack(const AckInfo& ack) = 0;
  virtual void on_loss(const LossInfo& loss) = 0;

  /// Current pacing rate in bits per second (> 0).
  virtual double pacing_rate_bps() const = 0;

  /// Congestion window in packets; the runner keeps packets-in-flight below
  /// this.
  virtual double cwnd_packets() const = 0;
};

/// Builds a fresh sender per episode, replay or flow; must be thread-safe to
/// call (it only constructs new objects).
using SenderFactory = std::function<std::unique_ptr<CcSender>()>;

}  // namespace netadv::cc
