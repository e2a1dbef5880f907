// Tests for the adversarial framework itself: Equation 1's decomposition,
// both adversary environments' action/observation/reward contracts, the
// trace recorders, and the end-to-end gate — a short adversary training run
// must open a bigger optimality gap against its target than random traces
// do (the paper's core claim, Figures 1-2).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "abr/bb.hpp"
#include "abr/mpc.hpp"
#include "abr/optimal.hpp"
#include "abr/pensieve.hpp"
#include "abr/runner.hpp"
#include "cc/bbr.hpp"
#include "cc/cubic.hpp"
#include "core/abr_adversary.hpp"
#include "core/cc_adversary.hpp"
#include "core/recorder.hpp"
#include "core/trainer.hpp"
#include "trace/generators.hpp"
#include "util/log.hpp"
#include "util/stats.hpp"

namespace {

using namespace netadv;
using namespace netadv::core;
using netadv::util::Rng;

class QuietLogs : public ::testing::Environment {
 public:
  void SetUp() override { util::set_log_level(util::LogLevel::kWarn); }
};
const auto* const kQuietLogs =
    ::testing::AddGlobalTestEnvironment(new QuietLogs);

abr::VideoManifest exact_manifest() {
  abr::VideoManifest::Params p;
  p.size_variation = 0.0;
  return abr::VideoManifest{p};
}

// ---------------------------------------------------------------- Equation 1

TEST(AdversaryReward, ValueIsOptMinusProtocolMinusSmoothing) {
  const AdversaryReward r{.optimal = 5.0, .protocol = 2.0, .smoothing = 0.5};
  EXPECT_DOUBLE_EQ(r.value(), 2.5);
  EXPECT_DOUBLE_EQ(r.regret(), 3.0);
}

// ---------------------------------------------------------------- AbrAdversaryEnv

TEST(AbrAdversaryEnv, ObservationAndActionContracts) {
  const abr::VideoManifest m = exact_manifest();
  abr::BufferBased bb;
  AbrAdversaryEnv env{m, bb};
  // 10 history x (5 scalars + 6 chunk sizes) = 110.
  EXPECT_EQ(env.observation_size(), 110u);
  const rl::ActionSpec spec = env.action_spec();
  EXPECT_EQ(spec.type, rl::ActionType::kContinuous);
  ASSERT_EQ(spec.low.size(), 1u);
  EXPECT_DOUBLE_EQ(spec.low[0], 0.8);
  EXPECT_DOUBLE_EQ(spec.high[0], 4.8);

  Rng rng{1};
  const rl::Vec obs = env.reset(rng);
  EXPECT_EQ(obs.size(), env.observation_size());
}

TEST(AbrAdversaryEnv, EpisodeLengthIsChunkCount) {
  const abr::VideoManifest m = exact_manifest();
  abr::BufferBased bb;
  AbrAdversaryEnv env{m, bb};
  Rng rng{2};
  env.reset(rng);
  std::size_t steps = 0;
  while (true) {
    const rl::StepResult r = env.step({0.0}, rng);
    ++steps;
    if (r.done) break;
  }
  EXPECT_EQ(steps, m.num_chunks());
  EXPECT_EQ(env.episode_bandwidths().size(), m.num_chunks());
  EXPECT_EQ(env.episode_qualities().size(), m.num_chunks());
  EXPECT_EQ(env.episode_buffers().size(), m.num_chunks());
}

TEST(AbrAdversaryEnv, ActionsAreClampedIntoRange) {
  const abr::VideoManifest m = exact_manifest();
  abr::BufferBased bb;
  AbrAdversaryEnv env{m, bb};
  Rng rng{3};
  env.reset(rng);
  env.step({-100.0}, rng);
  env.step({+100.0}, rng);
  ASSERT_EQ(env.episode_bandwidths().size(), 2u);
  EXPECT_DOUBLE_EQ(env.episode_bandwidths()[0], 0.8);
  EXPECT_DOUBLE_EQ(env.episode_bandwidths()[1], 4.8);
}

TEST(AbrAdversaryEnv, OptimalAtLeastProtocolAlways) {
  // r_opt is a maximum over all plans including the protocol's own, so
  // regret must be non-negative at every step — the property that rules out
  // trivially-hostile traces.
  const abr::VideoManifest m = exact_manifest();
  abr::BufferBased bb;
  AbrAdversaryEnv env{m, bb};
  Rng rng{5};
  env.reset(rng);
  while (true) {
    const rl::Vec action{rng.uniform(-1.5, 1.5)};
    const rl::StepResult r = env.step(action, rng);
    EXPECT_GE(env.last_reward().regret(), -1e-9);
    if (r.done) break;
  }
}

TEST(AbrAdversaryEnv, SmoothingZeroForConstantBandwidth) {
  const abr::VideoManifest m = exact_manifest();
  abr::BufferBased bb;
  AbrAdversaryEnv env{m, bb};
  Rng rng{7};
  env.reset(rng);
  env.step({0.25}, rng);
  env.step({0.25}, rng);
  EXPECT_DOUBLE_EQ(env.last_reward().smoothing, 0.0);
}

TEST(AbrAdversaryEnv, SmoothingChargesBandwidthJumps) {
  const abr::VideoManifest m = exact_manifest();
  abr::BufferBased bb;
  AbrAdversaryEnv env{m, bb};
  Rng rng{8};
  env.reset(rng);
  env.step({-1.0}, rng);  // 0.8 Mbps
  env.step({+1.0}, rng);  // 4.8 Mbps
  EXPECT_NEAR(env.last_reward().smoothing, 4.0, 1e-9);
}

TEST(AbrAdversaryEnv, StepBeforeResetThrows) {
  const abr::VideoManifest m = exact_manifest();
  abr::BufferBased bb;
  AbrAdversaryEnv env{m, bb};
  Rng rng{9};
  EXPECT_THROW(env.step({0.0}, rng), std::logic_error);
}

TEST(AbrAdversaryEnv, ValidatesParams) {
  const abr::VideoManifest m = exact_manifest();
  abr::BufferBased bb;
  AbrAdversaryEnv::Params bad;
  bad.bandwidth_min_mbps = 2.0;
  bad.bandwidth_max_mbps = 1.0;
  EXPECT_THROW((AbrAdversaryEnv{m, bb, bad}), std::invalid_argument);
  AbrAdversaryEnv::Params bad2;
  bad2.opt_window = 0;
  EXPECT_THROW((AbrAdversaryEnv{m, bb, bad2}), std::invalid_argument);
}

TEST(AbrAdversaryEnv, ResetClearsEpisodeState) {
  const abr::VideoManifest m = exact_manifest();
  abr::BufferBased bb;
  AbrAdversaryEnv env{m, bb};
  Rng rng{10};
  env.reset(rng);
  env.step({0.0}, rng);
  env.reset(rng);
  EXPECT_TRUE(env.episode_bandwidths().empty());
}

// ---------------------------------------------------------------- CcAdversaryEnv

TEST(CcAdversaryEnv, Table1ActionRanges) {
  CcAdversaryEnv env;
  const rl::ActionSpec spec = env.action_spec();
  ASSERT_EQ(spec.low.size(), 3u);
  EXPECT_DOUBLE_EQ(spec.low[0], 6.0);
  EXPECT_DOUBLE_EQ(spec.high[0], 24.0);
  EXPECT_DOUBLE_EQ(spec.low[1], 15.0);
  EXPECT_DOUBLE_EQ(spec.high[1], 60.0);
  EXPECT_DOUBLE_EQ(spec.low[2], 0.0);
  EXPECT_DOUBLE_EQ(spec.high[2], 0.10);
}

TEST(CcAdversaryEnv, ObservationIsUtilizationAndQueueDelay) {
  CcAdversaryEnv env;
  EXPECT_EQ(env.observation_size(), 2u);
  Rng rng{11};
  rl::Vec obs = env.reset(rng);
  ASSERT_EQ(obs.size(), 2u);
  for (int i = 0; i < 20; ++i) {
    const rl::StepResult r = env.step({0.0, 0.0, -1.0}, rng);
    ASSERT_EQ(r.observation.size(), 2u);
    EXPECT_GE(r.observation[0], 0.0);
    EXPECT_LE(r.observation[0], 1.0);
    EXPECT_GE(r.observation[1], 0.0);
    EXPECT_LE(r.observation[1], 1.0);
  }
}

TEST(CcAdversaryEnv, EpisodeLengthMatchesDuration) {
  CcAdversaryEnv::Params p;
  p.episode_duration_s = 0.6;  // 20 epochs of 30 ms
  CcAdversaryEnv env{p};
  EXPECT_EQ(env.epochs_per_episode(), 20u);
  Rng rng{13};
  env.reset(rng);
  std::size_t steps = 0;
  while (true) {
    const rl::StepResult r = env.step({0.0, 0.0, -1.0}, rng);
    ++steps;
    if (r.done) break;
  }
  // reset() consumed one epoch to produce the first observation.
  EXPECT_EQ(steps, 19u);
}

TEST(CcAdversaryEnv, RewardMatchesFormula) {
  CcAdversaryEnv::Params p;
  p.episode_duration_s = 3.0;
  CcAdversaryEnv env{p};
  Rng rng{17};
  env.reset(rng);
  // Constant mid-range action: after the first step the EWMA matches and the
  // smoothing term is 0, so r = 1 - U - L.
  rl::StepResult r{};
  for (int i = 0; i < 10; ++i) r = env.step({0.0, 0.0, 0.0}, rng);
  const double loss = 0.05;  // midpoint of [0, 0.10]
  EXPECT_NEAR(r.reward,
              1.0 - env.last_interval().aggregate_utilization() - loss, 1e-6);
}

TEST(CcAdversaryEnv, SteadyLinkGivesLowRewardAgainstBbr) {
  // A benign constant link is a *bad* adversary: BBR utilizes it well, so
  // 1 - U is small.
  CcAdversaryEnv::Params p;
  p.episode_duration_s = 15.0;
  CcAdversaryEnv env{p};
  Rng rng{19};
  env.reset(rng);
  double reward_sum = 0.0;
  std::size_t n = 0;
  double tail_util = 0.0;
  while (true) {
    const rl::StepResult r = env.step({1.0, -1.0, -1.0}, rng);  // 24 Mbps, 15 ms, 0 loss
    reward_sum += r.reward;
    ++n;
    tail_util = r.observation[0];
    if (r.done) break;
  }
  const double mean_reward = reward_sum / static_cast<double>(n);
  EXPECT_LT(mean_reward, 0.45);
  EXPECT_GT(tail_util, 0.7);  // BBR converged to the steady link
}

TEST(CcAdversaryEnv, ValidatesParams) {
  CcAdversaryEnv::Params bad;
  bad.bandwidth_min_mbps = 30.0;  // > max
  EXPECT_THROW(CcAdversaryEnv{bad}, std::invalid_argument);
  CcAdversaryEnv::Params bad2;
  bad2.epoch_s = 0.0;
  EXPECT_THROW(CcAdversaryEnv{bad2}, std::invalid_argument);
}

// NaN slips past every `<` check and inf overflows epochs_per_episode():
// non-finite episode shapes must be rejected at construction.
TEST(CcAdversaryEnv, RejectsNonFiniteEpisodeShape) {
  for (const double bad : {std::nan(""), HUGE_VAL, -HUGE_VAL}) {
    CcAdversaryEnv::Params duration;
    duration.episode_duration_s = bad;
    EXPECT_THROW(CcAdversaryEnv{duration}, std::invalid_argument) << bad;
    CcAdversaryEnv::Params epoch;
    epoch.epoch_s = bad;
    EXPECT_THROW(CcAdversaryEnv{epoch}, std::invalid_argument) << bad;
  }
}

TEST(CcAdversaryEnv, StepBeforeResetThrows) {
  CcAdversaryEnv env;
  Rng rng{23};
  EXPECT_THROW(env.step({0.0, 0.0, 0.0}, rng), std::logic_error);
}

TEST(CcAdversaryEnv, CustomSenderFactoryIsUsed) {
  CcAdversaryEnv::Params p;
  p.episode_duration_s = 1.0;
  CcAdversaryEnv env{p, [] {
    return std::unique_ptr<cc::CcSender>(std::make_unique<cc::CubicSender>());
  }};
  Rng rng{29};
  env.reset(rng);
  EXPECT_EQ(env.sender()->name(), "cubic");
}

// ---------------------------------------------------------------- recorder

TEST(Recorder, AbrTracesHaveRightShape) {
  const abr::VideoManifest m = exact_manifest();
  abr::BufferBased bb;
  AbrAdversaryEnv env{m, bb};
  rl::PpoAgent agent{env.observation_size(), env.action_spec(),
                     abr_adversary_ppo_config(), 31};
  Rng rng{31};
  const auto traces = record_abr_traces(agent, env, 5, rng);
  ASSERT_EQ(traces.size(), 5u);
  for (const auto& t : traces) {
    ASSERT_EQ(t.size(), m.num_chunks());
    for (const auto& s : t.segments()) {
      EXPECT_GE(s.bandwidth_mbps, 0.8);
      EXPECT_LE(s.bandwidth_mbps, 4.8);
      EXPECT_DOUBLE_EQ(s.duration_s, m.chunk_duration_s());
    }
  }
}

TEST(Recorder, DeterministicAbrTraceIsReproducible) {
  const abr::VideoManifest m = exact_manifest();
  abr::BufferBased bb;
  AbrAdversaryEnv env{m, bb};
  rl::PpoAgent agent{env.observation_size(), env.action_spec(),
                     abr_adversary_ppo_config(), 37};
  Rng rng{37};
  const auto t1 = record_abr_traces(agent, env, 1, rng, true);
  const auto t2 = record_abr_traces(agent, env, 1, rng, true);
  ASSERT_EQ(t1[0].size(), t2[0].size());
  for (std::size_t i = 0; i < t1[0].size(); ++i) {
    EXPECT_DOUBLE_EQ(t1[0][i].bandwidth_mbps, t2[0][i].bandwidth_mbps);
  }
}

TEST(Recorder, AbrEpisodeRecordIsConsistent) {
  const abr::VideoManifest m = exact_manifest();
  abr::BufferBased bb;
  AbrAdversaryEnv env{m, bb};
  rl::PpoAgent agent{env.observation_size(), env.action_spec(),
                     abr_adversary_ppo_config(), 41};
  Rng rng{41};
  const AbrEpisodeRecord record = record_abr_episode(agent, env, rng);
  EXPECT_EQ(record.bandwidth_mbps.size(), m.num_chunks());
  EXPECT_EQ(record.bitrate_kbps.size(), m.num_chunks());
  EXPECT_EQ(record.buffer_s.size(), m.num_chunks());
  EXPECT_EQ(record.trace.size(), m.num_chunks());
  // QoE recomputed from the record must match a replay of the trace.
  abr::BufferBased fresh;
  const double replay = abr::run_playback(fresh, m, record.trace).total_qoe;
  EXPECT_NEAR(record.total_qoe, replay, 1e-6);
}

TEST(Recorder, CcEpisodeRecordHasConsistentSeries) {
  CcAdversaryEnv::Params p;
  p.episode_duration_s = 1.5;
  CcAdversaryEnv env{p};
  rl::PpoAgent agent{env.observation_size(), env.action_spec(),
                     cc_adversary_ppo_config(), 43};
  Rng rng{43};
  const CcEpisodeRecord record = record_cc_episode(agent, env, rng);
  const std::size_t n = record.bandwidth_mbps.size();
  EXPECT_GT(n, 0u);
  EXPECT_EQ(record.latency_ms.size(), n);
  EXPECT_EQ(record.loss_rate.size(), n);
  EXPECT_EQ(record.raw_bandwidth.size(), n);
  EXPECT_EQ(record.throughput_mbps.size(), n);
  EXPECT_EQ(record.utilization.size(), n);
  EXPECT_EQ(record.trace.size(), n);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_GE(record.bandwidth_mbps[i], 6.0);
    EXPECT_LE(record.bandwidth_mbps[i], 24.0);
    EXPECT_GE(record.latency_ms[i], 15.0);
    EXPECT_LE(record.latency_ms[i], 60.0);
    EXPECT_GE(record.loss_rate[i], 0.0);
    EXPECT_LE(record.loss_rate[i], 0.10);
  }
}

TEST(Recorder, ReplayCcTraceRuns) {
  trace::Trace t;
  for (int i = 0; i < 20; ++i) t.append({0.030, 12.0, 30.0, 0.0});
  const std::vector<cc::SenderFactory> bbr{[] {
    return std::unique_ptr<cc::CcSender>(std::make_unique<cc::BbrSender>());
  }};
  const CcReplayResult result = replay_cc_trace(bbr, t, {}, 0.0, 47);
  EXPECT_EQ(result.utilization.size(), 20u);
  EXPECT_GE(result.mean_utilization, 0.0);
  EXPECT_LE(result.mean_utilization, 1.0);
  const trace::Trace empty;
  EXPECT_THROW(replay_cc_trace(bbr, empty, {}, 0.0, 47),
               std::invalid_argument);
}

// Flow i of the replayed mix starts at i * stagger_s: a negative or
// non-finite stagger would start flows before t = 0 (or never), so both the
// single-trace and the corpus entry points reject it by name.
TEST(Recorder, ReplayCcTraceRejectsBadStagger) {
  trace::Trace t;
  for (int i = 0; i < 4; ++i) t.append({0.030, 12.0, 30.0, 0.0});
  const cc::SenderFactory bbr = [] {
    return std::unique_ptr<cc::CcSender>(std::make_unique<cc::BbrSender>());
  };
  for (const double bad : {-1.0, std::nan(""), HUGE_VAL}) {
    try {
      replay_cc_trace({bbr, bbr}, t, {}, bad, 47);
      ADD_FAILURE() << "replay_cc_trace accepted stagger_s = " << bad;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string{e.what()}.find("stagger_s"), std::string::npos)
          << e.what();
    }
    EXPECT_THROW(replay_cc_traces({bbr, bbr}, {t}, {}, bad, 47),
                 std::invalid_argument)
        << bad;
  }
}

// ---------------------------------------------------------------- trainer configs

TEST(TrainerConfig, PaperArchitectures) {
  const rl::PpoConfig abr_cfg = abr_adversary_ppo_config();
  ASSERT_EQ(abr_cfg.hidden_sizes.size(), 2u);
  EXPECT_EQ(abr_cfg.hidden_sizes[0], 32u);
  EXPECT_EQ(abr_cfg.hidden_sizes[1], 16u);
  const rl::PpoConfig cc_cfg = cc_adversary_ppo_config();
  ASSERT_EQ(cc_cfg.hidden_sizes.size(), 1u);
  EXPECT_EQ(cc_cfg.hidden_sizes[0], 4u);
}

// ---------------------------------------------------------------- end-to-end gates

TEST(EndToEnd, TrainedAbrAdversaryBeatsRandomTracesAgainstBb) {
  const abr::VideoManifest m = exact_manifest();
  abr::BufferBased bb;
  AbrAdversaryEnv env{m, bb};

  rl::PpoAgent adversary =
      train_adversary(env, abr_adversary_ppo_config(), 24576, 51);

  // Regret (optimal - protocol QoE) on 20 adversarial vs 20 random traces.
  Rng rng{53};
  const auto adv_traces = record_abr_traces(adversary, env, 20, rng);
  trace::UniformRandomGenerator random_gen{{}};
  const auto random_traces = random_gen.generate_many(20, rng);

  auto mean_regret = [&](const std::vector<trace::Trace>& traces) {
    double total = 0.0;
    for (const auto& t : traces) {
      abr::BufferBased target;
      const double protocol_qoe = abr::run_playback(target, m, t).total_qoe;
      const double optimal_qoe = abr::optimal_playback(m, t).total_qoe;
      total += optimal_qoe - protocol_qoe;
    }
    return total / static_cast<double>(traces.size());
  };

  const double adv_regret = mean_regret(adv_traces);
  const double random_regret = mean_regret(random_traces);
  EXPECT_GT(adv_regret, random_regret)
      << "adversarial traces must open a larger optimality gap";
}

TEST(EndToEnd, AdversaryTrainingImprovesItsReward) {
  const abr::VideoManifest m = exact_manifest();
  abr::BufferBased bb;
  AbrAdversaryEnv env{m, bb};
  rl::PpoAgent agent{env.observation_size(), env.action_spec(),
                     abr_adversary_ppo_config(), 59};
  const rl::TrainReport report = agent.train(env, 20480);
  EXPECT_GT(report.final_mean_episode_reward, report.mean_episode_reward * 0.5);
  EXPECT_GT(report.episodes, 100u);
}

TEST(EndToEnd, RobustifyPipelineRunsAndAugmentsCorpus) {
  const abr::VideoManifest m = exact_manifest();
  trace::FccLikeGenerator gen{{}};
  Rng rng{61};
  abr::PensieveEnv env{m, gen.generate_many(20, rng)};
  rl::PpoAgent pensieve = abr::make_pensieve_agent(m, 61);

  RobustifyConfig cfg;
  cfg.protocol_steps = 8192;
  cfg.inject_fraction = 0.75;
  cfg.adversary_steps = 4096;
  cfg.adversarial_traces = 10;
  cfg.seed = 61;
  const RobustifyResult result = robustify_pensieve(pensieve, env, cfg);

  EXPECT_EQ(result.adversarial_traces.size(), 10u);
  EXPECT_EQ(env.traces().size(), 30u);
  EXPECT_GT(result.phase1.steps, 0u);
  EXPECT_GT(result.phase2.steps, 0u);
  for (const auto& t : result.adversarial_traces) {
    EXPECT_EQ(t.size(), m.num_chunks());
  }
}

TEST(EndToEnd, RobustifyWithFullFractionIsBaseline) {
  const abr::VideoManifest m = exact_manifest();
  trace::FccLikeGenerator gen{{}};
  Rng rng{67};
  abr::PensieveEnv env{m, gen.generate_many(5, rng)};
  rl::PpoAgent pensieve = abr::make_pensieve_agent(m, 67);
  RobustifyConfig cfg;
  cfg.protocol_steps = 2048;
  cfg.inject_fraction = 1.0;
  const RobustifyResult result = robustify_pensieve(pensieve, env, cfg);
  EXPECT_TRUE(result.adversarial_traces.empty());
  EXPECT_EQ(env.traces().size(), 5u);
  EXPECT_EQ(result.phase2.steps, 0u);
}

TEST(EndToEnd, PensieveTrainsToReasonableQoe) {
  const abr::VideoManifest m = exact_manifest();
  trace::FccLikeGenerator gen{{}};
  Rng rng{71};
  abr::PensieveEnv env{m, gen.generate_many(20, rng)};
  rl::PpoAgent pensieve = abr::make_pensieve_agent(m, 71);
  pensieve.train(env, 16384);

  // Deploy and compare against BB on fresh traces from the same corpus.
  abr::PensievePolicy policy{pensieve};
  abr::BufferBased bb;
  const auto test_traces = gen.generate_many(20, rng);
  const auto pensieve_qoe = abr::qoe_per_trace(policy, m, test_traces);
  const auto bb_qoe = abr::qoe_per_trace(bb, m, test_traces);
  // Trained Pensieve should at least be in BB's league on its home corpus.
  EXPECT_GT(util::mean(pensieve_qoe), util::mean(bb_qoe) * 0.8 - 0.2);
}

}  // namespace
