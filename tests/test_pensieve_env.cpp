// Focused tests for the Pensieve training environment and feature pipeline
// (the pieces Figure 4's robustification rests on), plus deeper BBR/runner
// state checks that earlier suites only exercised end to end.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>

#include "abr/pensieve.hpp"
#include "abr/runner.hpp"
#include "cc/bbr.hpp"
#include "cc/multiflow.hpp"
#include "rl/checkpoint.hpp"
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

trace::Trace constant_trace(double bw) {
  trace::Trace t;
  for (int i = 0; i < 48; ++i) t.append({4.0, bw, 80.0, 0.0});
  return t;
}

// ---------------------------------------------------------------- features

TEST(PensieveFeatures, SizeMatchesLayout) {
  const abr::VideoManifest m = exact_manifest();
  // 2 scalars + 2*8 histories + 6 sizes + 1 remaining = 25.
  EXPECT_EQ(abr::pensieve_feature_size(m), 25u);
  abr::AbrObservation obs;
  obs.next_chunk_sizes_bits = m.chunk_sizes_bits(0);
  const rl::Vec f = abr::pensieve_features(obs, m);
  EXPECT_EQ(f.size(), 25u);
}

TEST(PensieveFeatures, NormalizationsAreApplied) {
  const abr::VideoManifest m = exact_manifest();
  abr::AbrObservation obs;
  obs.last_bitrate_mbps = 4.3;   // top rung
  obs.buffer_s = 20.0;
  obs.remaining_chunks = 24;
  obs.next_chunk_sizes_bits = m.chunk_sizes_bits(0);
  const rl::Vec f = abr::pensieve_features(obs, m);
  EXPECT_DOUBLE_EQ(f[0], 1.0);   // bitrate / max
  EXPECT_DOUBLE_EQ(f[1], 2.0);   // buffer / 10
  EXPECT_DOUBLE_EQ(f.back(), 0.5);  // remaining / total
}

TEST(PensieveFeatures, HistoriesZeroPadded) {
  const abr::VideoManifest m = exact_manifest();
  abr::AbrObservation obs;
  obs.throughput_history_mbps = {2.5};
  obs.next_chunk_sizes_bits = m.chunk_sizes_bits(0);
  const rl::Vec f = abr::pensieve_features(obs, m);
  EXPECT_DOUBLE_EQ(f[2], 2.5);
  for (std::size_t i = 3; i < 2 + abr::kPensieveHistory; ++i) {
    EXPECT_DOUBLE_EQ(f[i], 0.0);
  }
}

// ---------------------------------------------------------------- env dynamics

TEST(PensieveEnv, EpisodeRewardEqualsPlaybackQoe) {
  // Summing the env's per-step rewards while mimicking a fixed protocol
  // must equal the runner's QoE for the same protocol on the same trace.
  const abr::VideoManifest m = exact_manifest();
  const trace::Trace t = constant_trace(2.0);
  abr::PensieveEnv env{m, {t}};

  // Policy: always quality 2.
  Rng rng{7};
  env.reset(rng);
  double env_total = 0.0;
  while (true) {
    const rl::StepResult r = env.step({2.0}, rng);
    env_total += r.reward;
    if (r.done) break;
  }

  class Fixed final : public abr::AbrProtocol {
   public:
    std::string name() const override { return "fixed"; }
    void begin_video(const abr::VideoManifest&) override {}
    std::size_t choose_quality(const abr::AbrObservation&) override {
      return 2;
    }
  };
  Fixed fixed;
  const double runner_total = abr::run_playback(fixed, m, t).total_qoe;
  EXPECT_NEAR(env_total, runner_total, 1e-9);
}

TEST(PensieveEnv, EpisodeLengthIsChunkCount) {
  const abr::VideoManifest m = exact_manifest();
  abr::PensieveEnv env{m, {constant_trace(2.0)}};
  Rng rng{11};
  env.reset(rng);
  std::size_t steps = 0;
  while (true) {
    const rl::StepResult r = env.step({0.0}, rng);
    ++steps;
    if (r.done) break;
  }
  EXPECT_EQ(steps, m.num_chunks());
}

TEST(PensieveEnv, SamplesAcrossCorpus) {
  const abr::VideoManifest m = exact_manifest();
  abr::PensieveEnv env{m, {constant_trace(1.0), constant_trace(4.0)}};
  Rng rng{13};
  bool saw_slow = false;
  bool saw_fast = false;
  for (int e = 0; e < 20; ++e) {
    env.reset(rng);
    const rl::StepResult r = env.step({0.0}, rng);
    // First chunk throughput reveals which trace was drawn; index 2 is the
    // most recent throughput sample.
    const double tput = r.observation[2];
    if (tput < 2.0) saw_slow = true;
    else saw_fast = true;
  }
  EXPECT_TRUE(saw_slow);
  EXPECT_TRUE(saw_fast);
}

TEST(PensieveEnv, ValidatesInputs) {
  const abr::VideoManifest m = exact_manifest();
  EXPECT_THROW((abr::PensieveEnv{m, {}}), std::invalid_argument);
  EXPECT_THROW((abr::PensieveEnv{m, {trace::Trace{}}}), std::invalid_argument);
  abr::PensieveEnv env{m, {constant_trace(2.0)}};
  Rng rng{17};
  EXPECT_THROW(env.step({0.0}, rng), std::logic_error);
  env.reset(rng);
  EXPECT_THROW(env.step({99.0}, rng), std::invalid_argument);
  EXPECT_THROW(env.set_traces({}), std::invalid_argument);
}

TEST(PensieveEnv, SetTracesSwapsCorpus) {
  const abr::VideoManifest m = exact_manifest();
  abr::PensieveEnv env{m, {constant_trace(1.0)}};
  env.set_traces({constant_trace(4.0), constant_trace(4.0)});
  EXPECT_EQ(env.traces().size(), 2u);
  Rng rng{19};
  env.reset(rng);
  const rl::StepResult r = env.step({0.0}, rng);
  EXPECT_NEAR(r.observation[2], 4.0, 1e-9);  // throughput from the new corpus
}

// ---------------------------------------------------------------- checkpoint (continuous)

TEST(Checkpoint, ContinuousAgentRoundTrip) {
  const rl::ActionSpec spec = rl::ActionSpec::continuous({6.0, 15.0, 0.0},
                                                         {24.0, 60.0, 0.1});
  rl::PpoConfig cfg;
  cfg.hidden_sizes = {4};
  rl::PpoAgent a{2, spec, cfg, 23};
  a.log_std() = {-0.7, -0.3, -1.1};
  const std::string path =
      (std::filesystem::temp_directory_path() / "netadv_cont_ckpt.txt").string();
  rl::save_checkpoint(a, path);
  rl::PpoAgent b{2, spec, cfg, 999};
  rl::load_checkpoint(b, path);
  EXPECT_EQ(b.log_std(), a.log_std());
  const rl::Vec obs{0.5, 0.2};
  const rl::Vec act_a = a.act_deterministic(obs);
  const rl::Vec act_b = b.act_deterministic(obs);
  for (std::size_t i = 0; i < act_a.size(); ++i) {
    EXPECT_DOUBLE_EQ(act_a[i], act_b[i]);
  }
  std::remove(path.c_str());
}

// ---------------------------------------------------------------- BBR state details

TEST(BbrState, ProbeRttShrinksCwndToFour) {
  cc::BbrSender bbr;
  cc::MultiFlowRunner runner{{&bbr}, {}, 29};
  bool saw_probe_rtt_cwnd = false;
  for (double t = 0.03; t <= 25.0; t += 0.03) {
    runner.run_until(t);
    if (bbr.mode() == cc::BbrSender::Mode::kProbeRtt) {
      EXPECT_DOUBLE_EQ(bbr.cwnd_packets(), 4.0);
      saw_probe_rtt_cwnd = true;
    }
  }
  EXPECT_TRUE(saw_probe_rtt_cwnd);
}

TEST(BbrState, DrainUsesInverseStartupGain) {
  cc::BbrSender bbr;
  cc::MultiFlowRunner runner{{&bbr}, {}, 31};
  bool saw_drain = false;
  for (double t = 0.01; t <= 5.0; t += 0.01) {
    runner.run_until(t);
    if (bbr.mode() == cc::BbrSender::Mode::kDrain) {
      EXPECT_NEAR(bbr.pacing_gain(), 1.0 / 2.885, 1e-9);
      saw_drain = true;
    }
  }
  EXPECT_TRUE(saw_drain);
}

TEST(BbrState, ProbeBwGainCycleValues) {
  cc::BbrSender bbr;
  cc::MultiFlowRunner runner{{&bbr}, {}, 37};
  runner.run_until(6.0);
  ASSERT_EQ(bbr.mode(), cc::BbrSender::Mode::kProbeBw);
  bool saw_high = false;
  bool saw_low = false;
  for (double t = 6.0; t <= 9.0; t += 0.005) {
    runner.run_until(t);
    if (bbr.pacing_gain() > 1.2) saw_high = true;
    if (bbr.pacing_gain() < 0.8) saw_low = true;
  }
  EXPECT_TRUE(saw_high);  // the 1.25 probing phase
  EXPECT_TRUE(saw_low);   // the 0.75 drain phase
}

TEST(CcRunnerState, CapacityIntegralRespectsConditionChanges) {
  cc::BbrSender bbr;
  cc::MultiFlowRunner runner{{&bbr}, {}, 41};
  runner.collect();
  runner.run_until(1.0);  // 12 Mbps for 1 s
  runner.set_conditions({24.0, 30.0, 0.0});
  runner.run_until(2.0);  // 24 Mbps for 1 s
  const auto interval = runner.collect();
  EXPECT_NEAR(interval.capacity_bits, 36e6, 1e5);
}

}  // namespace
