// Parameterized property suites: invariants that must hold across whole
// families of configurations — every ABR protocol on every link rate, every
// CC sender under every loss rate, every trace generator, and the adversary
// environment across its window/history parameter space.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <tuple>

#include "abr/bb.hpp"
#include "abr/mpc.hpp"
#include "abr/optimal.hpp"
#include "abr/runner.hpp"
#include "cc/bbr.hpp"
#include "cc/copa.hpp"
#include "cc/cubic.hpp"
#include "cc/vivace.hpp"
#include "cc/multiflow.hpp"
#include "core/abr_adversary.hpp"
#include "core/cc_adversary.hpp"
#include "trace/generators.hpp"
#include "util/rng.hpp"

namespace {

using namespace netadv;
using netadv::util::Rng;

abr::VideoManifest exact_manifest() {
  abr::VideoManifest::Params p;
  p.size_variation = 0.0;
  return abr::VideoManifest{p};
}

std::unique_ptr<abr::AbrProtocol> make_protocol(const std::string& kind) {
  if (kind == "bb") return std::make_unique<abr::BufferBased>();
  return std::make_unique<abr::RobustMpc>();
}

trace::Trace constant_trace(double bw, std::size_t n = 48) {
  trace::Trace t;
  for (std::size_t i = 0; i < n; ++i) t.append({4.0, bw, 80.0, 0.0});
  return t;
}

// ---------------------------------------------------------------- ABR protocols

class AbrProtocolProperty
    : public ::testing::TestWithParam<std::tuple<std::string, double>> {};

TEST_P(AbrProtocolProperty, PlaybackInvariantsHold) {
  const auto& [kind, bandwidth] = GetParam();
  const abr::VideoManifest m = exact_manifest();
  auto protocol = make_protocol(kind);
  const abr::PlaybackRecord record =
      abr::run_playback(*protocol, m, constant_trace(bandwidth));

  ASSERT_EQ(record.chunks.size(), m.num_chunks());
  for (const auto& c : record.chunks) {
    EXPECT_LT(c.quality, m.num_qualities());
    EXPECT_GE(c.rebuffer_s, 0.0);
    EXPECT_GE(c.buffer_after_s, 0.0);
    EXPECT_LE(c.buffer_after_s, 60.0 + 1e-9);
    EXPECT_GT(c.download_time_s, 0.0);
  }
  // Mean bitrate can never exceed the top of the ladder.
  EXPECT_LE(record.mean_bitrate_mbps, m.max_bitrate_mbps() + 1e-9);
}

TEST_P(AbrProtocolProperty, NeverBeatsOfflineOptimal) {
  const auto& [kind, bandwidth] = GetParam();
  const abr::VideoManifest m = exact_manifest();
  auto protocol = make_protocol(kind);
  const trace::Trace t = constant_trace(bandwidth);
  const double protocol_qoe = abr::run_playback(*protocol, m, t).total_qoe;
  const double optimal_qoe = abr::optimal_playback(m, t).total_qoe;
  EXPECT_LE(protocol_qoe, optimal_qoe + 0.5) << kind << " @ " << bandwidth;
}

INSTANTIATE_TEST_SUITE_P(
    ProtocolsAcrossRates, AbrProtocolProperty,
    ::testing::Combine(::testing::Values("bb", "mpc"),
                       ::testing::Values(0.4, 0.8, 1.5, 2.4, 4.8, 12.0)),
    [](const auto& info) {
      return std::get<0>(info.param) + "_" +
             std::to_string(static_cast<int>(std::get<1>(info.param) * 10)) +
             "dMbps";
    });

// ---------------------------------------------------------------- ABR on generated corpora

class AbrOnCorpusProperty : public ::testing::TestWithParam<std::string> {};

TEST_P(AbrOnCorpusProperty, ProtocolsSurviveWholeCorpus) {
  const abr::VideoManifest m = exact_manifest();
  Rng rng{77};
  std::unique_ptr<trace::TraceGenerator> gen;
  const std::string kind = GetParam();
  if (kind == "fcc") gen = std::make_unique<trace::FccLikeGenerator>();
  else if (kind == "3g") gen = std::make_unique<trace::Hsdpa3gLikeGenerator>();
  else gen = std::make_unique<trace::UniformRandomGenerator>();

  abr::BufferBased bb;
  abr::RobustMpc mpc;
  for (const auto& t : gen->generate_many(10, rng)) {
    const double bb_qoe = abr::run_playback(bb, m, t).total_qoe;
    const double mpc_qoe = abr::run_playback(mpc, m, t).total_qoe;
    const double opt = abr::optimal_playback(m, t).total_qoe;
    EXPECT_LE(bb_qoe, opt + 0.5);
    EXPECT_LE(mpc_qoe, opt + 0.5);
    // The optimum itself is bounded by perfect top-rate playback.
    EXPECT_LE(opt, 4.3 * static_cast<double>(m.num_chunks()) + 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Corpora, AbrOnCorpusProperty,
                         ::testing::Values("fcc", "3g", "uniform"),
                         [](const auto& info) { return info.param == "3g" ? std::string("threeg") : info.param; });

// ---------------------------------------------------------------- CC senders

class CcSenderProperty
    : public ::testing::TestWithParam<std::tuple<std::string, double>> {};

std::unique_ptr<cc::CcSender> make_sender(const std::string& kind) {
  if (kind == "bbr") return std::make_unique<cc::BbrSender>();
  if (kind == "copa") return std::make_unique<cc::CopaSender>();
  if (kind == "vivace") return std::make_unique<cc::VivaceSender>();
  if (kind == "cubic") return std::make_unique<cc::CubicSender>();
  return std::make_unique<cc::RenoSender>();
}

TEST_P(CcSenderProperty, FlowInvariantsHold) {
  const auto& [kind, loss] = GetParam();
  auto sender = make_sender(kind);
  cc::LinkSim::Params link;
  link.initial = {12.0, 30.0, loss};
  cc::MultiFlowRunner runner{{sender.get()}, link, 99};
  runner.run_until(8.0);
  const auto interval = runner.collect();
  const cc::FlowStats& stats = interval.flows[0];

  // Conservation: everything sent is delivered, lost, or in flight.
  EXPECT_EQ(runner.total_sent(0),
            runner.total_delivered(0) + runner.total_lost(0) +
                static_cast<std::uint64_t>(runner.inflight_packets(0)));
  EXPECT_GE(interval.aggregate_utilization(), 0.0);
  EXPECT_LE(interval.aggregate_utilization(), 1.0);
  if (stats.packets_delivered > 0) {
    // RTT is bounded below by the propagation delay and above by
    // propagation + max queue + detection slack.
    EXPECT_GE(stats.mean_rtt_s, 0.060 - 1e-9);
    EXPECT_LE(stats.mean_rtt_s, 0.060 + 0.25 + 0.05);
  }
  // cwnd and pacing rate stay sane under stress.
  EXPECT_GE(sender->cwnd_packets(), 1.0);
  EXPECT_GT(sender->pacing_rate_bps(), 0.0);
}

TEST_P(CcSenderProperty, LossFractionTracksLinkLoss) {
  const auto& [kind, loss] = GetParam();
  auto sender = make_sender(kind);
  cc::LinkSim::Params link;
  link.initial = {12.0, 30.0, loss};
  cc::MultiFlowRunner runner{{sender.get()}, link, 101};
  runner.run_until(20.0);
  if (runner.total_sent(0) > 500 && loss > 0.0) {
    const double observed = static_cast<double>(runner.total_lost(0)) /
                            static_cast<double>(runner.total_sent(0));
    // Random loss dominates tail drop here; allow generous slack.
    EXPECT_GT(observed, loss * 0.4);
    EXPECT_LT(observed, loss * 3.0 + 0.02);
  }
}

INSTANTIATE_TEST_SUITE_P(
    SendersAcrossLoss, CcSenderProperty,
    ::testing::Combine(::testing::Values("bbr", "copa", "vivace", "cubic", "reno"),
                       ::testing::Values(0.0, 0.01, 0.05)),
    [](const auto& info) {
      return std::get<0>(info.param) + "_loss" +
             std::to_string(
                 static_cast<int>(std::get<1>(info.param) * 1000));
    });

// ---------------------------------------------------------------- CC senders on varying links

class CcVaryingLinkProperty : public ::testing::TestWithParam<std::string> {};

TEST_P(CcVaryingLinkProperty, SurvivesAdversarialRangeSweeps) {
  // Conditions jump around Table 1's extremes every 100 ms; nothing may
  // crash, and conservation must hold throughout.
  auto sender = make_sender(GetParam());
  cc::MultiFlowRunner runner{{sender.get()}, {}, 103};
  Rng rng{103};
  double now = 0.0;
  for (int i = 0; i < 100; ++i) {
    runner.set_conditions({rng.uniform(6.0, 24.0), rng.uniform(15.0, 60.0),
                           rng.uniform(0.0, 0.10)});
    now += 0.1;
    runner.run_until(now);
  }
  EXPECT_EQ(runner.total_sent(0),
            runner.total_delivered(0) + runner.total_lost(0) +
                static_cast<std::uint64_t>(runner.inflight_packets(0)));
  EXPECT_GT(runner.total_delivered(0), 0u);
}

INSTANTIATE_TEST_SUITE_P(Senders, CcVaryingLinkProperty,
                         ::testing::Values("bbr", "copa", "vivace", "cubic",
                                           "reno"));

// ---------------------------------------------------------------- adversary env windows

class AbrAdversaryWindowProperty
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {};

TEST_P(AbrAdversaryWindowProperty, RegretNonNegativeAcrossWindowConfigs) {
  const auto& [opt_window, history] = GetParam();
  const abr::VideoManifest m = exact_manifest();
  abr::BufferBased bb;
  core::AbrAdversaryEnv::Params params;
  params.opt_window = opt_window;
  params.history = history;
  core::AbrAdversaryEnv env{m, bb, params};
  EXPECT_EQ(env.observation_size(), history * (5 + m.num_qualities()));

  Rng rng{111};
  env.reset(rng);
  while (true) {
    const rl::StepResult r = env.step({rng.uniform(-1.5, 1.5)}, rng);
    EXPECT_GE(env.last_reward().regret(), -1e-9);
    ASSERT_EQ(r.observation.size(), env.observation_size());
    if (r.done) break;
  }
}

INSTANTIATE_TEST_SUITE_P(
    WindowConfigs, AbrAdversaryWindowProperty,
    ::testing::Combine(::testing::Values<std::size_t>(1, 2, 4, 6),
                       ::testing::Values<std::size_t>(1, 5, 10)),
    [](const auto& info) {
      return "w" + std::to_string(std::get<0>(info.param)) + "_h" +
             std::to_string(std::get<1>(info.param));
    });

// ---------------------------------------------------------------- generators

class GeneratorProperty : public ::testing::TestWithParam<std::string> {};

std::unique_ptr<trace::TraceGenerator> make_generator(const std::string& kind) {
  if (kind == "fcc") return std::make_unique<trace::FccLikeGenerator>();
  if (kind == "3g") return std::make_unique<trace::Hsdpa3gLikeGenerator>();
  return std::make_unique<trace::UniformRandomGenerator>();
}

TEST_P(GeneratorProperty, DeterministicUnderSeed) {
  auto gen = make_generator(GetParam());
  Rng a{5};
  Rng b{5};
  const trace::Trace t1 = gen->generate(a);
  const trace::Trace t2 = gen->generate(b);
  ASSERT_EQ(t1.size(), t2.size());
  for (std::size_t i = 0; i < t1.size(); ++i) {
    EXPECT_DOUBLE_EQ(t1[i].bandwidth_mbps, t2[i].bandwidth_mbps);
  }
}

TEST_P(GeneratorProperty, SegmentsAreWellFormed) {
  auto gen = make_generator(GetParam());
  Rng rng{7};
  for (int i = 0; i < 10; ++i) {
    const trace::Trace t = gen->generate(rng);
    EXPECT_FALSE(t.empty());
    for (const auto& s : t.segments()) {
      EXPECT_GT(s.duration_s, 0.0);
      EXPECT_GT(s.bandwidth_mbps, 0.0);
      EXPECT_GE(s.latency_ms, 0.0);
      EXPECT_GE(s.loss_rate, 0.0);
      EXPECT_LE(s.loss_rate, 1.0);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Generators, GeneratorProperty,
                         ::testing::Values("fcc", "3g", "uniform"),
                         [](const auto& info) { return info.param == "3g" ? std::string("threeg") : info.param; });

// ---------------------------------------------------------------- QoE monotonicity

class QoeMonotonicity : public ::testing::TestWithParam<double> {};

TEST_P(QoeMonotonicity, MoreRebufferingNeverHelps) {
  const double bitrate = GetParam();
  double last = 1e18;
  for (double rebuf : {0.0, 0.5, 1.0, 2.0, 4.0}) {
    const double q = abr::chunk_qoe(bitrate, rebuf, bitrate);
    EXPECT_LT(q, last);
    last = q;
  }
}

TEST_P(QoeMonotonicity, BiggerBitrateJumpCostsMore) {
  const double bitrate = GetParam();
  const double q_same = abr::chunk_qoe(bitrate, 0.0, bitrate);
  const double q_jump = abr::chunk_qoe(bitrate, 0.0, bitrate + 2.0);
  EXPECT_GT(q_same, q_jump);
}

INSTANTIATE_TEST_SUITE_P(Bitrates, QoeMonotonicity,
                         ::testing::Values(0.3, 1.2, 2.85, 4.3),
                         [](const auto& info) {
                           return "r" + std::to_string(static_cast<int>(
                                            info.param * 100));
                         });

}  // namespace
