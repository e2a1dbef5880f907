#include "cc/multiflow.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "cc/bbr.hpp"

namespace netadv::cc {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
}

double jain_fairness_index(const std::vector<double>& throughputs) {
  // An interval where every flow is starved is trivially *fair* (all flows
  // equal, at zero), not maximally unfair: returning 0 here would pay a
  // fairness adversary full reward for starving everyone — exactly what the
  // loss penalty exists to prevent. Same for the vacuous empty input.
  if (throughputs.empty()) return 1.0;
  double sum = 0.0;
  double sum_sq = 0.0;
  for (double x : throughputs) {
    sum += x;
    sum_sq += x * x;
  }
  if (sum_sq <= 0.0) return 1.0;
  return sum * sum / (static_cast<double>(throughputs.size()) * sum_sq);
}

std::vector<double> MultiFlowRunner::Interval::throughputs_mbps() const {
  std::vector<double> out;
  out.reserve(flows.size());
  for (const auto& f : flows) out.push_back(f.throughput_mbps(duration_s));
  return out;
}

double MultiFlowRunner::Interval::aggregate_utilization() const noexcept {
  if (capacity_bits <= 0.0) return 0.0;
  double delivered = 0.0;
  for (const auto& f : flows) delivered += f.delivered_bits;
  return std::min(1.0, delivered / capacity_bits);
}

double MultiFlowRunner::Interval::utilization(std::size_t f) const noexcept {
  if (capacity_bits <= 0.0 || f >= flows.size()) return 0.0;
  return std::min(1.0, flows[f].delivered_bits / capacity_bits);
}

MultiFlowRunner::MultiFlowRunner(std::vector<CcSender*> senders,
                                 LinkSim::Params link_params,
                                 std::uint64_t seed,
                                 std::vector<double> start_times_s)
    : link_(link_params), rng_(seed) {
  if (senders.empty()) {
    throw std::invalid_argument{"MultiFlowRunner: no senders"};
  }
  if (!start_times_s.empty() && start_times_s.size() != senders.size()) {
    throw std::invalid_argument{"MultiFlowRunner: start_times size mismatch"};
  }
  flows_.reserve(senders.size());
  for (std::size_t i = 0; i < senders.size(); ++i) {
    if (senders[i] == nullptr) {
      throw std::invalid_argument{"MultiFlowRunner: null sender"};
    }
    Flow flow;
    flow.sender = senders[i];
    flow.bbr = dynamic_cast<BbrSender*>(senders[i]);
    flow.start_time_s = start_times_s.empty() ? 0.0 : start_times_s[i];
    flow.send_allowed_at_s = flow.start_time_s;
    flow.last_rtt_s = 2.0 * link_.conditions().one_way_delay_ms / 1000.0;
    flow.last_mean_rtt_s = flow.last_rtt_s;
    flow.sender->start(flow.start_time_s);
    flows_.push_back(flow);
  }
}

void MultiFlowRunner::set_conditions(const LinkConditions& conditions) {
  link_.set_conditions(conditions);
}

void MultiFlowRunner::advance_clock(double t_s) {
  if (t_s < now_s_) throw std::logic_error{"MultiFlowRunner: time went backwards"};
  interval_capacity_bits_ +=
      (t_s - now_s_) * link_.conditions().bandwidth_mbps * 1e6;
  now_s_ = t_s;
}

double MultiFlowRunner::next_send_time(const Flow& flow) const {
  if (now_s_ + 1e-12 < flow.start_time_s) return flow.start_time_s;
  if (flow.inflight >= flow.sender->cwnd_packets()) return kInf;
  // send_allowed_at_s starts at start_time_s and only moves later.
  return std::max(now_s_, flow.send_allowed_at_s);
}

void MultiFlowRunner::send_packet(std::size_t flow_index) {
  Flow& flow = flows_[flow_index];
  const double pkt_bits = link_.packet_bits();
  flow.send_allowed_at_s = now_s_ + pkt_bits / flow.sender->pacing_rate_bps();

  const std::uint64_t id = next_packet_id_++;
  const TransmitResult result = link_.transmit(now_s_, rng_);
  ++flow.inflight;
  ++flow.total_sent;
  ++flow.interval.packets_sent;

  if (result.kind == TransmitResult::Kind::kDelivered) {
    Event e;
    e.kind = Event::Kind::kAck;
    e.time_s = result.ack_return_time_s;
    e.flow = static_cast<std::uint32_t>(flow_index);
    e.ack.packet_id = id;
    e.ack.send_time_s = now_s_;
    e.ack.ack_time_s = result.ack_return_time_s;
    e.ack.rtt_s = result.ack_return_time_s - now_s_;
    e.ack.delivered_at_send = flow.delivered;
    e.ack.delivered_time_at_send_s = flow.delivered_time_s;
    events_.push(e);
    flow.queue_delay_sum_s += result.queue_delay_s;
  } else {
    // Drop: the stack notices roughly one RTT after the send.
    Event e;
    e.kind = Event::Kind::kLoss;
    e.time_s = now_s_ + std::max(flow.last_rtt_s,
                                 2.0 * link_.conditions().one_way_delay_ms /
                                     1000.0);
    e.flow = static_cast<std::uint32_t>(flow_index);
    e.loss.packet_id = id;
    e.loss.send_time_s = now_s_;
    e.loss.detect_time_s = e.time_s;
    events_.push(e);
  }
}

void MultiFlowRunner::process_event(const Event& event) {
  Flow& flow = flows_[event.flow];
  if (event.kind == Event::Kind::kAck) {
    --flow.inflight;
    ++flow.delivered;
    flow.delivered_time_s = event.time_s;
    ++flow.total_delivered;
    ++flow.interval.packets_delivered;
    flow.interval.delivered_bits += link_.packet_bits();
    flow.rtt_sum_s += event.ack.rtt_s;
    flow.last_rtt_s = event.ack.rtt_s;

    AckInfo ack = event.ack;
    ack.delivered = flow.delivered;
    if (flow.bbr != nullptr) flow.bbr->set_inflight(flow.inflight);
    flow.sender->on_ack(ack);
  } else {
    --flow.inflight;
    ++flow.total_lost;
    ++flow.interval.packets_lost;
    if (flow.bbr != nullptr) flow.bbr->set_inflight(flow.inflight);
    flow.sender->on_loss(event.loss);
  }
}

void MultiFlowRunner::run_until(double t_s) {
  if (t_s < now_s_) {
    throw std::invalid_argument{"MultiFlowRunner: run_until in the past"};
  }
  while (true) {
    const double t_event = events_.empty() ? kInf : events_.top().time_s;
    double t_send = kInf;
    std::size_t send_flow = 0;
    for (std::size_t i = 0; i < flows_.size(); ++i) {
      const double t = next_send_time(flows_[i]);
      if (t < t_send) {
        t_send = t;
        send_flow = i;
      }
    }
    const double t_next = std::min(t_event, t_send);
    if (t_next > t_s) break;
    advance_clock(t_next);
    if (t_send <= t_event) {
      send_packet(send_flow);
    } else {
      const Event event = events_.top();
      events_.pop();
      process_event(event);
    }
  }
  advance_clock(t_s);
}

MultiFlowRunner::Interval MultiFlowRunner::collect() {
  Interval interval;
  interval.duration_s = now_s_ - interval_start_s_;
  interval.capacity_bits = interval_capacity_bits_;
  interval.flows.reserve(flows_.size());
  for (auto& flow : flows_) {
    FlowStats stats = flow.interval;
    if (stats.packets_delivered > 0) {
      const auto acks = static_cast<double>(stats.packets_delivered);
      stats.mean_queue_delay_s = flow.queue_delay_sum_s / acks;
      stats.mean_rtt_s = flow.rtt_sum_s / acks;
      flow.last_mean_rtt_s = stats.mean_rtt_s;
    } else {
      // No deliveries this interval (starved or not yet started): carry the
      // previous interval's mean (the link's base RTT before any delivery)
      // instead of reporting 0 ms — a 0-RTT sample would otherwise be
      // averaged into latency observations downstream.
      stats.mean_rtt_s = flow.last_mean_rtt_s;
    }
    interval.flows.push_back(stats);
    flow.interval = FlowStats{};
    flow.rtt_sum_s = 0.0;
    flow.queue_delay_sum_s = 0.0;
  }
  interval_start_s_ = now_s_;
  interval_capacity_bits_ = 0.0;
  return interval;
}

}  // namespace netadv::cc
