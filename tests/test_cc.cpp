// Tests for the congestion-control substrate: the link model's conservation
// and delay properties, the windowed filters, BBR's state machine and
// steady-state utilization, and the loss-based baselines (including the
// paper's Section-4 claim that Cubic/Reno collapse under ~1% random loss
// while BBR does not).
#include <gtest/gtest.h>

#include <cmath>

#include "cc/bbr.hpp"
#include "cc/cubic.hpp"
#include "cc/link.hpp"
#include "cc/multiflow.hpp"
#include "cc/windowed_filter.hpp"
#include "util/rng.hpp"

namespace {

using namespace netadv::cc;
using netadv::util::Rng;

LinkSim::Params benign_link(double bw_mbps = 12.0, double owd_ms = 30.0,
                            double loss = 0.0) {
  LinkSim::Params p;
  p.initial = {bw_mbps, owd_ms, loss};
  return p;
}

// ---------------------------------------------------------------- filter

TEST(WindowedFilter, MaxTracksLargestInWindow) {
  WindowedFilter f{FilterKind::kMax, 10.0};
  f.update(5.0, 0.0);
  f.update(3.0, 1.0);
  EXPECT_DOUBLE_EQ(f.get(1.0), 5.0);
  f.update(7.0, 2.0);
  EXPECT_DOUBLE_EQ(f.get(2.0), 7.0);
}

TEST(WindowedFilter, ExpiresOldExtreme) {
  WindowedFilter f{FilterKind::kMax, 10.0};
  f.update(9.0, 0.0);
  f.update(4.0, 5.0);
  EXPECT_DOUBLE_EQ(f.get(5.0), 9.0);
  // At t=11 the 9.0 sample (age 11) is out of the window; 4.0 remains.
  EXPECT_DOUBLE_EQ(f.get(11.0), 4.0);
}

TEST(WindowedFilter, MinKind) {
  WindowedFilter f{FilterKind::kMin, 10.0};
  f.update(5.0, 0.0);
  f.update(2.0, 1.0);
  f.update(8.0, 2.0);
  EXPECT_DOUBLE_EQ(f.get(2.0), 2.0);
  EXPECT_DOUBLE_EQ(f.get(12.0), 8.0);  // the 2.0 expired
}

TEST(WindowedFilter, EmptyReturnsZero) {
  WindowedFilter f{FilterKind::kMax, 1.0};
  EXPECT_TRUE(f.empty());
  EXPECT_DOUBLE_EQ(f.get(0.0), 0.0);
}

TEST(WindowedFilter, ShrinkingWindowDropsStale) {
  WindowedFilter f{FilterKind::kMax, 100.0};
  f.update(9.0, 0.0);
  f.update(1.0, 50.0);
  f.set_window_length(10.0);
  EXPECT_DOUBLE_EQ(f.get(50.0), 1.0);
}

// ---------------------------------------------------------------- link

TEST(LinkSim, UnloadedPacketSeesOnlyPropAndTxDelay) {
  LinkSim link{benign_link(12.0, 30.0)};
  Rng rng{1};
  const TransmitResult r = link.transmit(0.0, rng);
  ASSERT_EQ(r.kind, TransmitResult::Kind::kDelivered);
  const double tx = 12000.0 / 12e6;  // 1 ms
  EXPECT_NEAR(r.delivery_time_s, tx + 0.030, 1e-9);
  EXPECT_NEAR(r.ack_return_time_s, tx + 0.060, 1e-9);
  EXPECT_DOUBLE_EQ(r.queue_delay_s, 0.0);
}

TEST(LinkSim, BackToBackPacketsQueue) {
  LinkSim link{benign_link(12.0, 0.0)};
  Rng rng{2};
  link.transmit(0.0, rng);
  const TransmitResult r2 = link.transmit(0.0, rng);
  EXPECT_NEAR(r2.queue_delay_s, 0.001, 1e-9);  // behind one 1-ms packet
  EXPECT_NEAR(r2.delivery_time_s, 0.002, 1e-9);
}

TEST(LinkSim, ServiceRateBoundsThroughput) {
  // Offer far more than capacity for one second; deliveries are spaced at
  // the service rate, so the last delivery time reflects capacity.
  LinkSim::Params p = benign_link(12.0, 0.0);
  p.max_queue_delay_s = 1e9;  // no tail drop for this test
  LinkSim link{p};
  Rng rng{3};
  int delivered = 0;
  double last_delivery = 0.0;
  for (int i = 0; i < 3000; ++i) {
    const TransmitResult r = link.transmit(0.0, rng);
    if (r.kind == TransmitResult::Kind::kDelivered &&
        r.delivery_time_s <= 1.0) {
      ++delivered;
      last_delivery = std::max(last_delivery, r.delivery_time_s);
    }
  }
  // 12 Mbps / 12 kbit = 1000 packets per second.
  EXPECT_NEAR(delivered, 1000, 2);
}

TEST(LinkSim, TailDropWhenBufferFull) {
  LinkSim::Params p = benign_link(12.0, 0.0);
  p.max_queue_delay_s = 0.01;  // 10 packets deep at 1 ms each
  LinkSim link{p};
  Rng rng{4};
  int drops = 0;
  for (int i = 0; i < 100; ++i) {
    if (link.transmit(0.0, rng).kind == TransmitResult::Kind::kTailDrop) {
      ++drops;
    }
  }
  EXPECT_GT(drops, 80);
}

TEST(LinkSim, RandomLossMatchesRate) {
  LinkSim link{benign_link(12.0, 10.0, 0.3)};
  Rng rng{5};
  int losses = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    // Spread packets out so the queue never builds.
    if (link.transmit(static_cast<double>(i) * 0.01, rng).kind ==
        TransmitResult::Kind::kRandomLoss) {
      ++losses;
    }
  }
  EXPECT_NEAR(static_cast<double>(losses) / n, 0.3, 0.02);
}

TEST(LinkSim, BandwidthChangeAffectsNewPackets) {
  LinkSim link{benign_link(12.0, 0.0)};
  Rng rng{6};
  link.set_conditions({24.0, 0.0, 0.0});
  const TransmitResult r = link.transmit(0.0, rng);
  EXPECT_NEAR(r.delivery_time_s, 12000.0 / 24e6, 1e-9);
}

TEST(LinkSim, ValidatesConditions) {
  LinkSim link{benign_link()};
  EXPECT_THROW(link.set_conditions({0.0, 10.0, 0.0}), std::invalid_argument);
  EXPECT_THROW(link.set_conditions({1.0, -1.0, 0.0}), std::invalid_argument);
  EXPECT_THROW(link.set_conditions({1.0, 10.0, 1.5}), std::invalid_argument);
}

TEST(LinkSim, ResetClearsBacklog) {
  LinkSim link{benign_link(12.0, 0.0)};
  Rng rng{7};
  for (int i = 0; i < 50; ++i) link.transmit(0.0, rng);
  EXPECT_GT(link.backlog_delay_s(0.0), 0.0);
  link.reset();
  EXPECT_DOUBLE_EQ(link.backlog_delay_s(0.0), 0.0);
}

// ---------------------------------------------------------------- single-flow runner

TEST(CcRunner, DeliveredNeverExceedsCapacity) {
  BbrSender bbr;
  MultiFlowRunner runner{{&bbr}, benign_link(6.0, 15.0), 13};
  runner.run_until(5.0);
  const auto interval = runner.collect();
  EXPECT_LE(interval.flows[0].delivered_bits, interval.capacity_bits * 1.05);
  EXPECT_LE(interval.aggregate_utilization(), 1.0);
}

TEST(CcRunner, RttReflectsPropagationDelay) {
  BbrSender bbr;
  MultiFlowRunner runner{{&bbr}, benign_link(24.0, 50.0), 23};
  runner.run_until(3.0);
  const FlowStats stats = runner.collect().flows[0];
  EXPECT_GE(stats.mean_rtt_s, 0.100);   // at least 2 * owd
  EXPECT_LT(stats.mean_rtt_s, 0.400);   // bounded by the 0.25 s buffer
}

// ---------------------------------------------------------------- bbr

TEST(Bbr, ReachesHighUtilizationOnStableLink) {
  BbrSender bbr;
  MultiFlowRunner runner{{&bbr}, benign_link(12.0, 30.0), 29};
  runner.run_until(5.0);
  runner.collect();  // discard startup transient
  runner.run_until(15.0);
  const auto interval = runner.collect();
  EXPECT_GT(interval.aggregate_utilization(), 0.8);
}

TEST(Bbr, EstimatesBottleneckBandwidth) {
  BbrSender bbr;
  MultiFlowRunner runner{{&bbr}, benign_link(12.0, 30.0), 31};
  runner.run_until(10.0);
  EXPECT_NEAR(bbr.bottleneck_bw_bps() / 1e6, 12.0, 3.0);
}

TEST(Bbr, EstimatesMinRtt) {
  BbrSender bbr;
  MultiFlowRunner runner{{&bbr}, benign_link(12.0, 40.0), 37};
  runner.run_until(10.0);
  EXPECT_NEAR(bbr.min_rtt_s(), 0.080, 0.01);
}

TEST(Bbr, LeavesStartupAfterPlateau) {
  BbrSender bbr;
  MultiFlowRunner runner{{&bbr}, benign_link(12.0, 30.0), 41};
  runner.run_until(5.0);
  EXPECT_TRUE(bbr.filled_pipe());
  EXPECT_NE(bbr.mode(), BbrSender::Mode::kStartup);
}

TEST(Bbr, EntersProbeRttAboutEveryTenSeconds) {
  BbrSender bbr;
  MultiFlowRunner runner{{&bbr}, benign_link(12.0, 30.0), 43};
  int probe_rtt_epochs = 0;
  bool was_in_probe_rtt = false;
  for (double t = 0.03; t <= 30.0; t += 0.03) {
    runner.run_until(t);
    const bool in = bbr.mode() == BbrSender::Mode::kProbeRtt;
    if (in && !was_in_probe_rtt) ++probe_rtt_epochs;
    was_in_probe_rtt = in;
  }
  // min_rtt is refreshed by queue-free moments too, so PROBE_RTT may trigger
  // less often than the 10 s worst case — but on a steadily probed link it
  // should appear at least once and at most a handful of times in 30 s.
  EXPECT_GE(probe_rtt_epochs, 1);
  EXPECT_LE(probe_rtt_epochs, 4);
}

TEST(Bbr, CyclesThroughProbeBwPhases) {
  BbrSender bbr;
  MultiFlowRunner runner{{&bbr}, benign_link(12.0, 30.0), 47};
  runner.run_until(5.0);
  ASSERT_EQ(bbr.mode(), BbrSender::Mode::kProbeBw);
  std::size_t distinct = 0;
  std::size_t last_phase = 999;
  for (double t = 5.0; t <= 8.0; t += 0.01) {
    runner.run_until(t);
    if (bbr.mode() == BbrSender::Mode::kProbeBw &&
        bbr.probe_bw_phase() != last_phase) {
      ++distinct;
      last_phase = bbr.probe_bw_phase();
    }
  }
  EXPECT_GE(distinct, 8u);  // full cycle in 3 s of ~60 ms RTT phases
}

TEST(Bbr, TracksBandwidthIncrease) {
  BbrSender bbr;
  MultiFlowRunner runner{{&bbr}, benign_link(6.0, 30.0), 53};
  runner.run_until(8.0);
  const double est_low = bbr.bottleneck_bw_bps();
  runner.set_conditions({24.0, 30.0, 0.0});
  runner.run_until(20.0);
  const double est_high = bbr.bottleneck_bw_bps();
  EXPECT_GT(est_high, est_low * 1.5);
}

TEST(Bbr, SurvivesModerateRandomLoss) {
  // The Section 4 contrast: BBR ignores random loss by design.
  BbrSender bbr;
  MultiFlowRunner runner{{&bbr}, benign_link(12.0, 30.0, 0.02), 59};
  runner.run_until(5.0);
  runner.collect();
  runner.run_until(15.0);
  const auto interval = runner.collect();
  EXPECT_GT(interval.aggregate_utilization(), 0.7);
}

TEST(Bbr, ValidatesParams) {
  BbrSender::Params bad;
  bad.packet_bits = 0.0;
  EXPECT_THROW(BbrSender{bad}, std::invalid_argument);
  BbrSender::Params bad2;
  bad2.probe_bw_gains.clear();
  EXPECT_THROW(BbrSender{bad2}, std::invalid_argument);
}

// ---------------------------------------------------------------- cubic / reno

TEST(Cubic, HighUtilizationOnCleanLink) {
  CubicSender cubic;
  MultiFlowRunner runner{{&cubic}, benign_link(12.0, 30.0), 61};
  runner.run_until(5.0);
  runner.collect();
  runner.run_until(15.0);
  const auto interval = runner.collect();
  EXPECT_GT(interval.aggregate_utilization(), 0.8);
}

TEST(Cubic, CollapsesUnderOnePercentLoss) {
  // The paper: "TCP congestion control variants like Cubic, Reno and HTCP
  // all share a trivial weakness to packet loss even as low as 1%."
  CubicSender cubic;
  MultiFlowRunner runner{{&cubic}, benign_link(12.0, 30.0, 0.01), 67};
  runner.run_until(5.0);
  runner.collect();
  runner.run_until(20.0);
  const auto interval = runner.collect();
  EXPECT_LT(interval.aggregate_utilization(), 0.6);
}

TEST(Reno, CollapsesUnderOnePercentLoss) {
  RenoSender reno;
  MultiFlowRunner runner{{&reno}, benign_link(12.0, 30.0, 0.01), 71};
  runner.run_until(5.0);
  runner.collect();
  runner.run_until(20.0);
  const auto interval = runner.collect();
  EXPECT_LT(interval.aggregate_utilization(), 0.5);
}

TEST(Reno, HighUtilizationOnCleanLink) {
  RenoSender reno;
  MultiFlowRunner runner{{&reno}, benign_link(12.0, 30.0), 73};
  runner.run_until(5.0);
  runner.collect();
  runner.run_until(15.0);
  const auto interval = runner.collect();
  EXPECT_GT(interval.aggregate_utilization(), 0.8);
}

TEST(Cubic, LossHalvesWindowOncePerRtt) {
  CubicSender cubic;
  cubic.start(0.0);
  AckInfo ack;
  ack.rtt_s = 0.06;
  ack.ack_time_s = 1.0;
  for (int i = 0; i < 50; ++i) cubic.on_ack(ack);  // grow in slow start
  const double before = cubic.cwnd_packets();
  LossInfo loss;
  loss.detect_time_s = 1.01;
  cubic.on_loss(loss);
  const double after_first = cubic.cwnd_packets();
  EXPECT_NEAR(after_first, before * 0.7, 1e-6);
  // A second loss within the same RTT is part of the same episode.
  loss.detect_time_s = 1.02;
  cubic.on_loss(loss);
  EXPECT_DOUBLE_EQ(cubic.cwnd_packets(), after_first);
}

TEST(Cubic, SlowStartDoublesPerRtt) {
  CubicSender cubic;
  cubic.start(0.0);
  EXPECT_TRUE(cubic.in_slow_start());
  const double w0 = cubic.cwnd_packets();
  AckInfo ack;
  ack.rtt_s = 0.06;
  for (int i = 0; i < static_cast<int>(w0); ++i) cubic.on_ack(ack);
  EXPECT_NEAR(cubic.cwnd_packets(), 2.0 * w0, 1e-9);
}

TEST(Reno, AdditiveIncreaseIsOnePacketPerRtt) {
  RenoSender reno;
  reno.start(0.0);
  LossInfo loss;
  loss.detect_time_s = 0.5;
  reno.on_loss(loss);  // leave slow start
  const double w0 = reno.cwnd_packets();
  AckInfo ack;
  ack.rtt_s = 0.06;
  ack.ack_time_s = 1.0;
  for (int i = 0; i < static_cast<int>(w0); ++i) reno.on_ack(ack);
  EXPECT_NEAR(reno.cwnd_packets(), w0 + 1.0, 0.1);
}

TEST(BbrVsCubic, BbrWinsUnderRandomLoss) {
  BbrSender bbr;
  MultiFlowRunner r1{{&bbr}, benign_link(12.0, 30.0, 0.03), 79};
  r1.run_until(20.0);
  CubicSender cubic;
  MultiFlowRunner r2{{&cubic}, benign_link(12.0, 30.0, 0.03), 79};
  r2.run_until(20.0);
  EXPECT_GT(static_cast<double>(r1.total_delivered(0)),
            1.5 * static_cast<double>(r2.total_delivered(0)));
}

}  // namespace
