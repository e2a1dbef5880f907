// The discrete-event loop for congestion-controlled flows sharing one
// LinkSim bottleneck: paces each flow's packets at its sender's rate (gated
// by its cwnd), returns ACKs after the path delay, and notifies the sender
// of drops one RTT later. A single flow is a one-sender mix — the Section-4
// setting, where the adversary env advances it in 30-ms epochs, changing
// link conditions between epochs and reading the per-epoch utilization and
// queueing delay. Two or more flows give the contention substrate for the
// fairness goals the paper sketches in Section 5.
#pragma once

#include <cstdint>
#include <queue>
#include <vector>

#include "cc/link.hpp"
#include "cc/sender.hpp"
#include "util/rng.hpp"

namespace netadv::cc {

class BbrSender;

/// Per-flow interval statistics (since the previous collect()).
struct FlowStats {
  std::uint64_t packets_sent = 0;
  std::uint64_t packets_delivered = 0;
  std::uint64_t packets_lost = 0;
  double delivered_bits = 0.0;
  /// Mean queueing delay of this interval's deliveries: each delivered
  /// packet's queue delay is counted when it is sent, and the sum is divided
  /// by the interval's ACK count; 0 for an interval with no deliveries.
  double mean_queue_delay_s = 0.0;
  /// Mean RTT of this interval's deliveries; for an interval with no
  /// deliveries, the previous interval's mean (the link's base RTT before
  /// any delivery) — never a fabricated 0 ms.
  double mean_rtt_s = 0.0;

  double throughput_mbps(double duration_s) const noexcept {
    return duration_s > 0.0 ? delivered_bits / duration_s / 1e6 : 0.0;
  }
};

/// Jain's fairness index over per-flow throughputs: 1 = perfectly fair,
/// 1/n = one flow has everything. All-zero (every flow starved) and empty
/// inputs are trivially fair and return 1 — unfairness requires an
/// *imbalance*, so total starvation must not score as maximal unfairness.
double jain_fairness_index(const std::vector<double>& throughputs);

class MultiFlowRunner {
 public:
  /// Senders are borrowed; all flows share the same LinkSim bottleneck.
  /// Each flow may start at its own time (staggered arrivals).
  MultiFlowRunner(std::vector<CcSender*> senders,
                  LinkSim::Params link_params, std::uint64_t seed,
                  std::vector<double> start_times_s = {});

  double now_s() const noexcept { return now_s_; }

  void set_conditions(const LinkConditions& conditions);
  const LinkConditions& conditions() const noexcept {
    return link_.conditions();
  }

  /// Advance the shared simulation to absolute time `t_s`.
  void run_until(double t_s);

  /// Per-flow stats since the previous collect(), plus the shared duration;
  /// resets the accumulators.
  struct Interval {
    double duration_s = 0.0;
    double capacity_bits = 0.0;
    std::vector<FlowStats> flows;

    std::vector<double> throughputs_mbps() const;
    /// Delivered / capacity over every flow, clamped to [0, 1] (packets
    /// queued in the previous interval can deliver just past its boundary);
    /// 0 when no capacity elapsed.
    double aggregate_utilization() const noexcept;
    /// The same share for flow `f` alone.
    double utilization(std::size_t f) const noexcept;
  };
  Interval collect();

  std::uint64_t total_sent(std::size_t flow) const {
    return flows_.at(flow).total_sent;
  }
  std::uint64_t total_delivered(std::size_t flow) const {
    return flows_.at(flow).total_delivered;
  }
  std::uint64_t total_lost(std::size_t flow) const {
    return flows_.at(flow).total_lost;
  }
  double inflight_packets(std::size_t flow) const {
    return flows_.at(flow).inflight;
  }

 private:
  struct Flow {
    CcSender* sender = nullptr;
    BbrSender* bbr = nullptr;  ///< `sender` when it is BBR (told inflight)
    double start_time_s = 0.0;
    double send_allowed_at_s = 0.0;
    double inflight = 0.0;
    double last_rtt_s = 0.1;
    double last_mean_rtt_s = 0.1;  ///< carried into delivery-free intervals
    std::uint64_t delivered = 0;
    double delivered_time_s = 0.0;
    std::uint64_t total_sent = 0;
    std::uint64_t total_delivered = 0;
    std::uint64_t total_lost = 0;
    FlowStats interval{};
    double rtt_sum_s = 0.0;
    double queue_delay_sum_s = 0.0;
  };

  struct Event {
    enum class Kind { kAck, kLoss };
    double time_s = 0.0;
    Kind kind = Kind::kAck;
    std::uint32_t flow = 0;  ///< fills the padding after `kind`
    AckInfo ack;
    LossInfo loss;
    bool operator>(const Event& other) const noexcept {
      return time_s > other.time_s;
    }
  };

  void advance_clock(double t_s);
  double next_send_time(const Flow& flow) const;
  void send_packet(std::size_t flow_index);
  void process_event(const Event& event);

  std::vector<Flow> flows_;
  LinkSim link_;
  util::Rng rng_;
  std::priority_queue<Event, std::vector<Event>, std::greater<>> events_;

  double now_s_ = 0.0;
  double interval_start_s_ = 0.0;
  double interval_capacity_bits_ = 0.0;
  std::uint64_t next_packet_id_ = 0;
};

}  // namespace netadv::cc
