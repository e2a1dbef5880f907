// Gap-filling coverage: logging level plumbing, the robustify pipeline's
// validation, the recorder's Equation-1 bookkeeping on the CC side, and a
// couple of cross-module seams earlier suites reached only indirectly.
#include <gtest/gtest.h>

#include "abr/pensieve.hpp"
#include "core/cc_adversary.hpp"
#include "core/trainer.hpp"
#include "trace/generators.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"

namespace {

using namespace netadv;
using netadv::util::Rng;

TEST(Log, ParseLevelNames) {
  using util::LogLevel;
  EXPECT_EQ(util::parse_log_level("debug"), LogLevel::kDebug);
  EXPECT_EQ(util::parse_log_level("warn"), LogLevel::kWarn);
  EXPECT_EQ(util::parse_log_level("error"), LogLevel::kError);
  EXPECT_EQ(util::parse_log_level("off"), LogLevel::kOff);
  EXPECT_EQ(util::parse_log_level("bogus"), LogLevel::kInfo);
}

TEST(Log, SetAndGetLevel) {
  const util::LogLevel saved = util::log_level();
  util::set_log_level(util::LogLevel::kError);
  EXPECT_EQ(util::log_level(), util::LogLevel::kError);
  util::set_log_level(saved);
}

TEST(Robustify, RejectsNonPositiveFraction) {
  abr::VideoManifest::Params mp;
  mp.size_variation = 0.0;
  const abr::VideoManifest m{mp};
  trace::FccLikeGenerator gen{{}};
  Rng rng{5};
  abr::PensieveEnv env{m, gen.generate_many(3, rng)};
  rl::PpoAgent agent = abr::make_pensieve_agent(m, 5);
  core::RobustifyConfig cfg;
  cfg.inject_fraction = 0.0;
  EXPECT_THROW(core::robustify_pensieve(agent, env, cfg),
               std::invalid_argument);
}

TEST(Robustify, ThrowAfterPhaseOneRestoresCallersPool) {
  // robustify_pensieve borrows config.pool for the caller-owned agent. A
  // throw after phase 1 (here: AbrAdversaryEnv rejecting an inverted
  // bandwidth range) must hand the agent back with its original pool, not
  // with a pointer to one that dies with the caller's scope.
  abr::VideoManifest::Params mp;
  mp.size_variation = 0.0;
  const abr::VideoManifest m{mp};
  trace::FccLikeGenerator gen{{}};
  Rng rng{9};
  abr::PensieveEnv env{m, gen.generate_many(3, rng)};
  rl::PpoAgent agent = abr::make_pensieve_agent(m, 9);
  ASSERT_EQ(agent.thread_pool(), nullptr);
  {
    util::ThreadPool pool{2};
    core::RobustifyConfig cfg;
    cfg.protocol_steps = 2;  // phase 1 rounds up to one rollout
    cfg.inject_fraction = 0.5;
    cfg.adversary_params.bandwidth_min_mbps = 5.0;
    cfg.adversary_params.bandwidth_max_mbps = 1.0;
    cfg.pool = &pool;
    EXPECT_THROW(core::robustify_pensieve(agent, env, cfg),
                 std::invalid_argument);
  }
  EXPECT_EQ(agent.thread_pool(), nullptr);
}

TEST(CcAdversaryEnv, RewardDecompositionSumsToValue) {
  core::CcAdversaryEnv::Params p;
  p.episode_duration_s = 0.6;
  core::CcAdversaryEnv env{p};
  Rng rng{7};
  env.reset(rng);
  for (int i = 0; i < 10; ++i) {
    const rl::StepResult r = env.step({0.3, -0.2, -0.8}, rng);
    const core::AdversaryReward& reward = env.last_reward();
    EXPECT_NEAR(r.reward,
                reward.optimal - reward.protocol - reward.smoothing, 1e-12);
    if (r.done) break;
  }
}

TEST(CcAdversaryEnv, SmoothingDecaysForConstantActions) {
  core::CcAdversaryEnv::Params p;
  p.episode_duration_s = 3.0;
  core::CcAdversaryEnv env{p};
  Rng rng{11};
  env.reset(rng);
  double last_smoothing = 1e9;
  for (int i = 0; i < 30; ++i) {
    env.step({0.6, -0.4, -1.0}, rng);
    if (i > 2) EXPECT_LE(env.last_reward().smoothing, last_smoothing + 1e-12);
    last_smoothing = env.last_reward().smoothing;
  }
  EXPECT_LT(last_smoothing, 1e-3);
}

TEST(PensieveAgentFactory, MatchesEnvInterfaces) {
  abr::VideoManifest::Params mp;
  mp.size_variation = 0.0;
  const abr::VideoManifest m{mp};
  rl::PpoAgent agent = abr::make_pensieve_agent(m, 3);
  EXPECT_EQ(agent.observation_size(), abr::pensieve_feature_size(m));
  EXPECT_EQ(agent.action_spec().num_actions, m.num_qualities());
  const rl::PpoConfig& cfg = agent.config();
  ASSERT_EQ(cfg.hidden_sizes.size(), 2u);
  EXPECT_GT(cfg.ent_coef, 0.0);  // Pensieve leans on entropy regularization
}

TEST(TraceGenerators, ManifestAlignedSegmentCounts) {
  // Figure-1 replay assumes one segment per chunk; the default generators
  // must match the default manifest's 48 chunks.
  const abr::VideoManifest m;
  trace::FccLikeGenerator fcc{{}};
  trace::Hsdpa3gLikeGenerator tg{{}};
  trace::UniformRandomGenerator uni{{}};
  Rng rng{13};
  EXPECT_EQ(fcc.generate(rng).size(), m.num_chunks());
  EXPECT_EQ(tg.generate(rng).size(), m.num_chunks());
  EXPECT_EQ(uni.generate(rng).size(), m.num_chunks());
}

}  // namespace
