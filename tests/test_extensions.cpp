// Tests for the Section-5 extensions and extra baselines: Copa, BOLA,
// Mahimahi trace interop, and alternative adversarial goals.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "abr/bb.hpp"
#include "abr/bola.hpp"
#include "abr/runner.hpp"
#include "cc/copa.hpp"
#include "cc/multiflow.hpp"
#include "core/abr_adversary.hpp"
#include "core/cc_adversary.hpp"
#include "trace/generators.hpp"
#include "trace/mahimahi.hpp"
#include "util/rng.hpp"

namespace {

using namespace netadv;
using netadv::util::Rng;

abr::VideoManifest exact_manifest() {
  abr::VideoManifest::Params p;
  p.size_variation = 0.0;
  return abr::VideoManifest{p};
}

trace::Trace constant_trace(double bw, std::size_t n = 48, double dur = 4.0) {
  trace::Trace t;
  for (std::size_t i = 0; i < n; ++i) t.append({dur, bw, 80.0, 0.0});
  return t;
}

// ---------------------------------------------------------------- Copa

TEST(Copa, HighUtilizationOnCleanLink) {
  cc::CopaSender copa;
  cc::LinkSim::Params link;
  link.initial = {12.0, 30.0, 0.0};
  cc::MultiFlowRunner runner{{&copa}, link, 11};
  runner.run_until(5.0);
  runner.collect();
  runner.run_until(15.0);
  EXPECT_GT(runner.collect().aggregate_utilization(), 0.75);
}

TEST(Copa, KeepsQueueingDelayLow) {
  // Copa's whole point: high throughput with a small standing queue
  // (delta=0.5 targets ~2 packets of queueing).
  cc::CopaSender copa;
  cc::LinkSim::Params link;
  link.initial = {12.0, 30.0, 0.0};
  cc::MultiFlowRunner runner{{&copa}, link, 13};
  runner.run_until(5.0);
  runner.collect();
  runner.run_until(15.0);
  const cc::FlowStats stats = runner.collect().flows[0];
  EXPECT_LT(stats.mean_queue_delay_s, 0.05);
}

TEST(Copa, LowerQueueThanBbr) {
  cc::CopaSender copa;
  cc::LinkSim::Params link;
  link.initial = {12.0, 30.0, 0.0};
  cc::MultiFlowRunner r1{{&copa}, link, 17};
  r1.run_until(15.0);
  const double copa_q = r1.collect().flows[0].mean_queue_delay_s;
  EXPECT_GE(copa_q, 0.0);
  EXPECT_LT(copa_q, 0.08);
}

TEST(Copa, SurvivesRandomLossBetterThanHalving) {
  // Delay-based: random loss should not collapse Copa's rate.
  cc::CopaSender copa;
  cc::LinkSim::Params link;
  link.initial = {12.0, 30.0, 0.02};
  cc::MultiFlowRunner runner{{&copa}, link, 19};
  runner.run_until(5.0);
  runner.collect();
  runner.run_until(15.0);
  EXPECT_GT(runner.collect().aggregate_utilization(), 0.5);
}

TEST(Copa, TracksBandwidthDrop) {
  cc::CopaSender copa;
  cc::LinkSim::Params link;
  link.initial = {24.0, 30.0, 0.0};
  cc::MultiFlowRunner runner{{&copa}, link, 23};
  runner.run_until(8.0);
  runner.set_conditions({6.0, 30.0, 0.0});
  runner.run_until(16.0);
  runner.collect();
  runner.run_until(20.0);
  const auto interval = runner.collect();
  // After adaptation the queue must not be persistently saturated.
  EXPECT_LT(interval.flows[0].mean_queue_delay_s, 0.2);
  EXPECT_GT(interval.aggregate_utilization(), 0.5);
}

TEST(Copa, VelocityResetsOnDirectionChange) {
  cc::CopaSender copa;
  copa.start(0.0);
  cc::AckInfo ack;
  // Grow: queue empty (rtt == min rtt).
  for (int i = 0; i < 50; ++i) {
    ack.rtt_s = 0.06;
    ack.ack_time_s = 0.06 * (i + 1);
    copa.on_ack(ack);
  }
  EXPECT_GT(copa.velocity(), 1.0);
  // Sudden large queueing delay: direction flips, velocity resets.
  ack.rtt_s = 0.5;
  ack.ack_time_s += 0.5;
  copa.on_ack(ack);
  EXPECT_DOUBLE_EQ(copa.velocity(), 1.0);
}

TEST(Copa, ValidatesParams) {
  cc::CopaSender::Params bad;
  bad.delta = 0.0;
  EXPECT_THROW(cc::CopaSender{bad}, std::invalid_argument);
}

TEST(Copa, WorksAsCcAdversaryTarget) {
  core::CcAdversaryEnv::Params p;
  p.episode_duration_s = 1.0;
  core::CcAdversaryEnv env{p, [] {
    return std::unique_ptr<cc::CcSender>(std::make_unique<cc::CopaSender>());
  }};
  Rng rng{29};
  env.reset(rng);
  rl::StepResult r{};
  while (!r.done) r = env.step({0.0, 0.0, -1.0}, rng);
  EXPECT_EQ(env.sender()->name(), "copa");
}

// ---------------------------------------------------------------- BOLA

TEST(Bola, QualityIsMonotoneInBuffer) {
  const abr::VideoManifest m = exact_manifest();
  abr::Bola bola;
  bola.begin_video(m);
  abr::AbrObservation obs;
  std::size_t last = 0;
  for (double b = 0.0; b <= 60.0; b += 1.0) {
    obs.buffer_s = b;
    const std::size_t q = bola.choose_quality(obs);
    EXPECT_GE(q, last) << "buffer " << b;
    last = q;
  }
  EXPECT_EQ(last, m.num_qualities() - 1);
}

TEST(Bola, EmptyBufferPicksLowest) {
  const abr::VideoManifest m = exact_manifest();
  abr::Bola bola;
  bola.begin_video(m);
  abr::AbrObservation obs;
  obs.buffer_s = 0.0;
  EXPECT_EQ(bola.choose_quality(obs), 0u);
}

TEST(Bola, ReasonableQoeOnSteadyLink) {
  const abr::VideoManifest m = exact_manifest();
  abr::Bola bola;
  const abr::PlaybackRecord record =
      abr::run_playback(bola, m, constant_trace(3.0));
  EXPECT_GT(record.total_qoe, 0.0);
  EXPECT_LT(record.total_rebuffer_s, 10.0);
}

TEST(Bola, BeatsBbOnStableMidRateLink) {
  // BOLA's Lyapunov score uses chunk sizes, so it reaches sustainable rates
  // faster than BB's pure buffer map on a steady link.
  const abr::VideoManifest m = exact_manifest();
  abr::Bola bola;
  abr::BufferBased bb;
  const trace::Trace t = constant_trace(2.0);
  EXPECT_GT(abr::run_playback(bola, m, t).total_qoe,
            abr::run_playback(bb, m, t).total_qoe);
}

TEST(Bola, RequiresBeginVideoAndValidatesParams) {
  abr::Bola bola;
  abr::AbrObservation obs;
  EXPECT_THROW(bola.choose_quality(obs), std::logic_error);
  abr::Bola::Params bad;
  bad.buffer_target_s = 0.0;
  EXPECT_THROW(abr::Bola{bad}, std::invalid_argument);
}

TEST(Bola, WorksAsAdversaryTarget) {
  const abr::VideoManifest m = exact_manifest();
  abr::Bola bola;
  core::AbrAdversaryEnv env{m, bola};
  Rng rng{31};
  env.reset(rng);
  rl::StepResult r{};
  while (!r.done) r = env.step({0.0}, rng);
  EXPECT_EQ(env.episode_qualities().size(), m.num_chunks());
}

// ---------------------------------------------------------------- Mahimahi interop

TEST(Mahimahi, ExportedOpportunitiesMatchBandwidth) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "netadv_mm_test.trace").string();
  // 12 Mbps for 2 s = 2000 packets of 12 kbit.
  trace::Trace t;
  t.append({2.0, 12.0, 30.0, 0.0});
  trace::save_mahimahi_trace(t, path);

  std::ifstream in{path};
  std::size_t lines = 0;
  std::string line;
  std::uint64_t last = 0;
  bool monotone = true;
  while (std::getline(in, line)) {
    const std::uint64_t ms = std::stoull(line);
    if (ms < last) monotone = false;
    last = ms;
    ++lines;
  }
  EXPECT_NEAR(static_cast<double>(lines), 2000.0, 2.0);
  EXPECT_TRUE(monotone);
  EXPECT_LT(last, 2000u);
  std::remove(path.c_str());
}

TEST(Mahimahi, RoundTripPreservesMeanBandwidth) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "netadv_mm_rt.trace").string();
  trace::Trace t;
  t.append({1.0, 6.0, 30.0, 0.0});
  t.append({1.0, 18.0, 30.0, 0.0});
  trace::save_mahimahi_trace(t, path);
  const trace::Trace back = trace::load_mahimahi_trace(path);
  EXPECT_NEAR(back.mean_bandwidth_mbps(), t.mean_bandwidth_mbps(), 1.0);
  // The bandwidth step must be visible in the imported trace.
  EXPECT_LT(back.at_time(0.5).bandwidth_mbps, 9.0);
  EXPECT_GT(back.at_time(1.5).bandwidth_mbps, 14.0);
  std::remove(path.c_str());
}

TEST(Mahimahi, LowRateStillEmitsOpportunities) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "netadv_mm_low.trace").string();
  trace::Trace t;
  t.append({10.0, 0.12, 30.0, 0.0});  // 0.12 Mbps = 10 pkts/s
  trace::save_mahimahi_trace(t, path);
  const trace::Trace back = trace::load_mahimahi_trace(path);
  EXPECT_NEAR(back.mean_bandwidth_mbps(), 0.12, 0.03);
  std::remove(path.c_str());
}

TEST(Mahimahi, SaveReportsAFullDisk) {
  if (!std::filesystem::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  trace::Trace t;
  t.append({0.01, 12.0, 30.0, 0.0});  // 10 opportunities: one buffered write
  EXPECT_THROW(trace::save_mahimahi_trace(t, "/dev/full"), std::runtime_error);
}

TEST(Mahimahi, ErrorsAreReported) {
  trace::Trace empty;
  EXPECT_THROW(trace::save_mahimahi_trace(empty, "/tmp/x.trace"),
               std::invalid_argument);
  EXPECT_THROW(trace::load_mahimahi_trace("/nonexistent/mm.trace"),
               std::runtime_error);
  const std::string path =
      (std::filesystem::temp_directory_path() / "netadv_mm_bad.trace").string();
  {
    std::ofstream out{path};
    out << "5\n3\n";  // non-monotone
  }
  EXPECT_THROW(trace::load_mahimahi_trace(path), std::runtime_error);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------- adversarial goals

TEST(AdversaryGoals, RebufferingGoalRewardsStalls) {
  const abr::VideoManifest m = exact_manifest();
  abr::BufferBased bb;
  core::AbrAdversaryEnv::Params p;
  p.goal = core::AbrAdversaryEnv::Goal::kRebuffering;
  core::AbrAdversaryEnv env{m, bb, p};
  Rng rng{37};
  env.reset(rng);
  // Starving the link must yield stalls -> positive regret under this goal.
  double total_reward = 0.0;
  rl::StepResult r{};
  while (!r.done) {
    r = env.step({-1.0}, rng);  // minimum bandwidth
    total_reward += r.reward;
  }
  EXPECT_GT(total_reward, 0.0);
}

TEST(AdversaryGoals, RebufferingGoalGivesNothingOnFastLink) {
  const abr::VideoManifest m = exact_manifest();
  abr::BufferBased bb;
  core::AbrAdversaryEnv::Params p;
  p.goal = core::AbrAdversaryEnv::Goal::kRebuffering;
  core::AbrAdversaryEnv env{m, bb, p};
  Rng rng{41};
  env.reset(rng);
  double positive = 0.0;
  rl::StepResult r{};
  while (!r.done) {
    r = env.step({1.0}, rng);  // max bandwidth: BB never stalls (after start)
    positive += std::max(r.reward, 0.0);
  }
  // Only the cold-start chunk can stall; nearly no reward is available.
  EXPECT_LT(positive, 1.0);
}

TEST(AdversaryGoals, CcCongestionGoalRewardsQueues) {
  core::CcAdversaryEnv::Params p;
  p.goal = core::CcAdversaryEnv::Goal::kCongestion;
  p.episode_duration_s = 10.0;
  core::CcAdversaryEnv env{p};
  Rng rng{47};
  env.reset(rng);
  // Drop bandwidth to the floor with zero loss: BBR (slow to notice) builds
  // standing queues; reward must go positive at some point.
  double best = -1e9;
  rl::StepResult r{};
  while (!r.done) {
    r = env.step({-1.0, 0.0, -1.0}, rng);
    best = std::max(best, r.reward);
  }
  EXPECT_GT(best, 0.05);
}

}  // namespace
