// End-to-end correctness gates for the PPO trainer: it must solve the toy
// environments with known optima, and checkpoints must round-trip.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "rl/checkpoint.hpp"
#include "rl/distributions.hpp"
#include "rl/ppo.hpp"
#include "rl/rollout.hpp"
#include "rl/toy_envs.hpp"
#include "util/log.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace netadv::rl;
using netadv::util::Rng;

PpoConfig small_config() {
  PpoConfig cfg;
  cfg.hidden_sizes = {16};
  cfg.n_steps = 256;
  cfg.minibatch_size = 64;
  cfg.epochs = 6;
  cfg.learning_rate = 3e-3;
  cfg.ent_coef = 0.01;
  return cfg;
}

TEST(PpoTraining, SolvesContextualBandit) {
  netadv::util::set_log_level(netadv::util::LogLevel::kWarn);
  ContextualBanditEnv env{3, 4, 32};
  PpoAgent agent{env.observation_size(), env.action_spec(), small_config(), 7};

  Rng eval_rng{1};
  const double before = agent.evaluate(env, 20, eval_rng);
  agent.train(env, 20000);
  const double after = agent.evaluate(env, 20, eval_rng);

  // Optimal is 32 (every step pays 1); random is 8.
  EXPECT_GT(after, 28.0);
  EXPECT_GT(after, before);
}

TEST(PpoTraining, DeterministicPolicyPicksCorrectArms) {
  ContextualBanditEnv env{2, 3, 16};
  PpoAgent agent{env.observation_size(), env.action_spec(), small_config(), 11};
  agent.train(env, 15000);
  // Probe each context directly.
  for (std::size_t ctx = 0; ctx < 2; ++ctx) {
    Vec obs(2, 0.0);
    obs[ctx] = 1.0;
    const Vec action = agent.act_deterministic(obs);
    EXPECT_EQ(static_cast<std::size_t>(action[0]), env.correct_arm(ctx))
        << "context " << ctx;
  }
}

TEST(PpoTraining, SolvesContinuousTargetChase) {
  TargetChaseEnv env{32};
  PpoConfig cfg = small_config();
  cfg.ent_coef = 0.0;
  PpoAgent agent{env.observation_size(), env.action_spec(), cfg, 13};

  agent.train(env, 40000);
  Rng eval_rng{2};
  const double after = agent.evaluate(env, 20, eval_rng);
  // Optimal reward is 0; random-policy reward is around -0.3 * 32 ~ -10.
  EXPECT_GT(after, -1.5);

  // The learned mean should approximate a = 0.5 * target after env mapping.
  const Vec a_pos = env.action_spec().to_physical(agent.act_deterministic({0.8}));
  const Vec a_neg = env.action_spec().to_physical(agent.act_deterministic({-0.8}));
  EXPECT_NEAR(a_pos[0], 0.4, 0.15);
  EXPECT_NEAR(a_neg[0], -0.4, 0.15);
}

TEST(PpoTraining, RewardImprovesMonotonicallyOnAverage) {
  ContextualBanditEnv env{2, 2, 32};
  PpoAgent agent{env.observation_size(), env.action_spec(), small_config(), 17};
  std::vector<double> curve;
  agent.train(env, 15000, [&](const UpdateInfo& info) {
    curve.push_back(info.mean_episode_reward);
  });
  ASSERT_GE(curve.size(), 4u);
  // Average of the last quarter must beat the first quarter.
  const std::size_t q = curve.size() / 4;
  double early = 0.0;
  double late = 0.0;
  for (std::size_t i = 0; i < q; ++i) early += curve[i];
  for (std::size_t i = curve.size() - q; i < curve.size(); ++i) late += curve[i];
  EXPECT_GT(late, early);
}

TEST(PpoTraining, TrainReportCountsAreConsistent) {
  ContextualBanditEnv env{2, 2, 16};
  PpoAgent agent{env.observation_size(), env.action_spec(), small_config(), 19};
  const TrainReport report = agent.train(env, 2000);
  EXPECT_GE(report.steps, 2000u);
  EXPECT_EQ(report.steps % small_config().n_steps, 0u);
  EXPECT_GT(report.updates, 0u);
  EXPECT_GT(report.episodes, 0u);
}

TEST(PpoTraining, MismatchedEnvObservationThrows) {
  ContextualBanditEnv env{3, 2, 8};
  PpoAgent agent{5, ActionSpec::discrete(2), small_config(), 23};
  EXPECT_THROW(agent.train(env, 100), std::invalid_argument);
}

TEST(PpoAgent, ConstructorValidatesArguments) {
  EXPECT_THROW((PpoAgent{0, ActionSpec::discrete(2), small_config(), 1}),
               std::invalid_argument);
  EXPECT_THROW((PpoAgent{2, ActionSpec::discrete(1), small_config(), 1}),
               std::invalid_argument);
  ActionSpec bad = ActionSpec::continuous({0.0}, {1.0, 2.0});
  EXPECT_THROW((PpoAgent{2, bad, small_config(), 1}), std::invalid_argument);
  PpoConfig bad_mb = small_config();
  bad_mb.minibatch_size = bad_mb.n_steps + 1;
  EXPECT_THROW((PpoAgent{2, ActionSpec::discrete(2), bad_mb, 1}),
               std::invalid_argument);
}

// Protocols and recorders hold a PpoAgent; it must train, evaluate and
// describe itself through that public surface alone.
TEST(AgentInterface, PolymorphicUseAcrossAlgorithms) {
  ContextualBanditEnv env{2, 3, 16};
  PpoConfig cfg = small_config();
  cfg.epochs = 10;
  PpoAgent agent{env.observation_size(), env.action_spec(), cfg, 29};
  agent.train(env, 8000);
  Rng rng{3};
  EXPECT_GT(agent.evaluate(env, 10, rng), 10.0);  // well above random (5.3)
  EXPECT_EQ(agent.observation_size(), env.observation_size());
  EXPECT_EQ(agent.action_spec().num_actions, 3u);
}

TEST(Checkpoint, RoundTripPreservesBehaviour) {
  ContextualBanditEnv env{2, 3, 16};
  PpoAgent agent{env.observation_size(), env.action_spec(), small_config(), 29};
  agent.train(env, 6000);

  const std::string path =
      (std::filesystem::temp_directory_path() / "netadv_ckpt_test.txt").string();
  save_checkpoint(agent, path);

  PpoAgent restored{env.observation_size(), env.action_spec(), small_config(), 999};
  load_checkpoint(restored, path);

  for (std::size_t ctx = 0; ctx < 2; ++ctx) {
    Vec obs(2, 0.0);
    obs[ctx] = 1.0;
    EXPECT_EQ(agent.act_deterministic(obs)[0],
              restored.act_deterministic(obs)[0]);
    EXPECT_NEAR(agent.value_estimate(obs), restored.value_estimate(obs), 1e-9);
  }
  std::remove(path.c_str());
}

std::string read_file(const std::string& path) {
  std::ifstream in{path, std::ios::binary};
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// save -> load -> save must reproduce the file byte for byte: parameters
/// are printed with round-trip precision and the v2 format stores the
/// normalizer's raw second moment, so nothing is lost to re-derivation.
void expect_checkpoint_byte_identity(PpoAgent& agent, PpoAgent& restored,
                                     const std::string& tag) {
  const auto dir = std::filesystem::temp_directory_path();
  const std::string first = (dir / ("netadv_ckpt_" + tag + "_1.txt")).string();
  const std::string second = (dir / ("netadv_ckpt_" + tag + "_2.txt")).string();
  save_checkpoint(agent, first);
  load_checkpoint(restored, first);
  save_checkpoint(restored, second);
  EXPECT_EQ(read_file(first), read_file(second)) << tag;
  std::remove(first.c_str());
  std::remove(second.c_str());
}

TEST(Checkpoint, SaveLoadSaveIsByteIdenticalDiscrete) {
  ContextualBanditEnv env{2, 3, 16};
  PpoAgent agent{env.observation_size(), env.action_spec(), small_config(), 29};
  agent.train(env, 1024);
  PpoAgent restored{env.observation_size(), env.action_spec(), small_config(),
                    999};
  expect_checkpoint_byte_identity(agent, restored, "discrete");
}

TEST(Checkpoint, SaveLoadSaveIsByteIdenticalContinuous) {
  TargetChaseEnv env{16};
  PpoAgent agent{env.observation_size(), env.action_spec(), small_config(), 29};
  agent.train(env, 1024);
  PpoAgent restored{env.observation_size(), env.action_spec(), small_config(),
                    999};
  expect_checkpoint_byte_identity(agent, restored, "continuous");
}

TEST(Checkpoint, SaveLoadSaveIsByteIdenticalUntrained) {
  // count_ < 2 is the regression case: restoring used to plant a spurious
  // second moment that changed the bytes (and later the variance).
  ContextualBanditEnv env{2, 3, 16};
  PpoAgent agent{env.observation_size(), env.action_spec(), small_config(), 29};
  PpoAgent restored{env.observation_size(), env.action_spec(), small_config(),
                    999};
  expect_checkpoint_byte_identity(agent, restored, "untrained");
}

TEST(Checkpoint, LoadsLegacyV1Format) {
  ContextualBanditEnv env{2, 2, 8};
  PpoAgent agent{env.observation_size(), env.action_spec(), small_config(), 41};
  const std::string path =
      (std::filesystem::temp_directory_path() / "netadv_ckpt_v1.txt").string();
  {
    // Minimal hand-written v1 checkpoint (variance instead of m2).
    std::ofstream out{path};
    out << "netadv-ppo-checkpoint v1\n";
    out << "obs_size 2\n";
    out << "action discrete 2\n";
    out << "actor " << agent.actor().param_count();
    for (std::size_t i = 0; i < agent.actor().param_count(); ++i) out << " 0.5";
    out << "\ncritic " << agent.critic().param_count();
    for (std::size_t i = 0; i < agent.critic().param_count(); ++i) out << " 0.25";
    out << "\nlog_std 0\n";
    out << "obs_mean 2 1 2\n";
    out << "obs_var 2 4 9\n";
    out << "obs_count 10\n";
  }
  load_checkpoint(agent, path);
  EXPECT_EQ(agent.actor().params()[0], 0.5);
  EXPECT_EQ(agent.obs_normalizer().count(), 10u);
  EXPECT_DOUBLE_EQ(agent.obs_normalizer().variance()[0], 4.0);
  EXPECT_DOUBLE_EQ(agent.obs_normalizer().variance()[1], 9.0);
  std::remove(path.c_str());
}

TEST(Checkpoint, TopologyMismatchThrows) {
  ContextualBanditEnv env{2, 3, 16};
  PpoAgent agent{env.observation_size(), env.action_spec(), small_config(), 31};
  const std::string path =
      (std::filesystem::temp_directory_path() / "netadv_ckpt_bad.txt").string();
  save_checkpoint(agent, path);

  PpoAgent wrong_obs{3, env.action_spec(), small_config(), 31};
  EXPECT_THROW(load_checkpoint(wrong_obs, path), std::runtime_error);

  PpoAgent wrong_actions{2, ActionSpec::discrete(4), small_config(), 31};
  EXPECT_THROW(load_checkpoint(wrong_actions, path), std::runtime_error);
  std::remove(path.c_str());
}

/// Runs load_checkpoint on `path` and returns the runtime_error message (or
/// a note saying what else happened, so the caller's expectations fail).
std::string load_error(PpoAgent& agent, const std::string& path) {
  try {
    load_checkpoint(agent, path);
  } catch (const std::runtime_error& e) {
    return e.what();
  } catch (const std::exception& e) {
    return std::string{"non-runtime_error: "} + e.what();
  }
  return "no error";
}

TEST(Checkpoint, DeclaredCountsAreCheckedBeforeAllocating) {
  // A corrupt count must fail with an error naming the key and the file,
  // never allocate what the file declares (a bare bad_alloc, or an OOM kill).
  ContextualBanditEnv env{2, 3, 16};
  PpoAgent agent{env.observation_size(), env.action_spec(), small_config(), 31};
  const auto dir = std::filesystem::temp_directory_path();

  const std::string huge_vector = (dir / "netadv_ckpt_huge_actor.txt").string();
  {
    std::ofstream out{huge_vector};
    out << "netadv-ppo-checkpoint v2\nobs_size 2\naction discrete 3\n"
        << "actor 99999999999999 1 2\n";
  }
  const std::string vector_error = load_error(agent, huge_vector);
  EXPECT_NE(vector_error.find("'actor'"), std::string::npos) << vector_error;
  EXPECT_NE(vector_error.find(huge_vector), std::string::npos) << vector_error;

  const std::string huge_meta = (dir / "netadv_ckpt_huge_meta.txt").string();
  {
    std::ofstream out{huge_meta};
    out << "netadv-ppo-checkpoint v3\nmeta 99999999999999\njob train\n";
  }
  const std::string meta_error = load_error(agent, huge_meta);
  EXPECT_NE(meta_error.find("meta"), std::string::npos) << meta_error;
  EXPECT_NE(meta_error.find(huge_meta), std::string::npos) << meta_error;
  EXPECT_THROW(read_checkpoint_meta(huge_meta), std::runtime_error);

  std::remove(huge_vector.c_str());
  std::remove(huge_meta.c_str());
}

TEST(Checkpoint, MissingFileThrows) {
  ContextualBanditEnv env{2, 2, 8};
  PpoAgent agent{env.observation_size(), env.action_spec(), small_config(), 37};
  EXPECT_THROW(load_checkpoint(agent, "/nonexistent/ckpt.txt"),
               std::runtime_error);
}

// --- rollout activation cache ---------------------------------------------

void expect_same_params(const PpoAgent& a, const PpoAgent& b) {
  const auto pa = a.actor().params();
  const auto pb = b.actor().params();
  ASSERT_EQ(pa.size(), pb.size());
  for (std::size_t i = 0; i < pa.size(); ++i) {
    ASSERT_EQ(pa[i], pb[i]) << "actor param " << i;
  }
  const auto ca = a.critic().params();
  const auto cb = b.critic().params();
  ASSERT_EQ(ca.size(), cb.size());
  for (std::size_t i = 0; i < ca.size(); ++i) {
    ASSERT_EQ(ca[i], cb[i]) << "critic param " << i;
  }
}

TEST(ActivationCache, MutableParamsAccessBumpsVersion) {
  // The cache's invalidation rule: every mutable params() access (what
  // optimizer steps and checkpoint loads go through) bumps param_version(),
  // so a stamped cache can never be reused after the parameters may have
  // changed. A const access must not bump it, or reuse would never hit.
  Rng rng{6};
  Mlp net{{3, 8, 2}, Activation::kTanh, 1.0, rng};
  const std::uint64_t v0 = net.param_version();
  const Mlp& view = net;
  EXPECT_EQ(view.params().size(), net.param_count());
  EXPECT_EQ(net.param_version(), v0);
  net.params();
  const std::uint64_t v1 = net.param_version();
  EXPECT_GT(v1, v0);
  net.params()[0] += 0.25;
  EXPECT_GT(net.param_version(), v1);
}

/// One rollout on random observations, scored by `agent` the way train()
/// records it: every transition carries its forward activations, stamped
/// with the networks' current versions. `cleared` gets the same transitions
/// with both stamps at 0, which no network ever has (versions start at 1),
/// so every sample of that copy recomputes its forwards. The copy's recorded
/// activations are overwritten with NaN, so a sample that reused them
/// anyway would poison the trained parameters.
void fill_stamped_and_cleared(const PpoAgent& agent, std::size_t steps,
                              RolloutBuffer& stamped, RolloutBuffer& cleared) {
  Rng rng{2025};
  for (std::size_t i = 0; i < steps; ++i) {
    Transition t;
    t.observation.resize(agent.observation_size());
    for (auto& v : t.observation) v = rng.uniform(-1.0, 1.0);
    const Vec& head = agent.actor().forward(t.observation, t.cache.actor);
    t.cache.actor_version = agent.actor().param_version();
    t.value = agent.critic().forward(t.observation, t.cache.critic)[0];
    t.cache.critic_version = agent.critic().param_version();
    if (agent.action_spec().type == ActionType::kDiscrete) {
      const std::size_t a = Categorical::sample(head, rng);
      t.action = {static_cast<double>(a)};
      t.log_prob = Categorical::log_prob(head, a);
    } else {
      t.action = DiagGaussian::sample(head, agent.log_std(), rng);
      t.log_prob = DiagGaussian::log_prob(head, agent.log_std(), t.action);
    }
    t.advantage = rng.uniform(-1.0, 1.0);
    t.return_ = t.value + t.advantage;

    Transition miss = t;
    miss.cache.actor_version = 0;
    miss.cache.critic_version = 0;
    for (Mlp::Workspace* ws : {&miss.cache.actor, &miss.cache.critic}) {
      for (auto* layers : {&ws->pre, &ws->post}) {
        for (Vec& layer : *layers) {
          std::fill(layer.begin(), layer.end(),
                    std::numeric_limits<double>::quiet_NaN());
        }
      }
    }
    stamped.add(std::move(t));
    cleared.add(std::move(miss));
  }
}

/// The cache must be a pure wall-clock optimization: version-stamped reuse
/// of rollout activations yields the exact forwards the gradient pass would
/// recompute. Two identically seeded agents run the update epochs, one on a
/// stamped rollout and one on its cleared copy, and must end bit-identical.
void expect_cache_hits_match_misses(const Env& shape, const PpoConfig& cfg,
                                    std::uint64_t seed) {
  PpoAgent hits{shape.observation_size(), shape.action_spec(), cfg, seed};
  PpoAgent misses{shape.observation_size(), shape.action_spec(), cfg, seed};
  RolloutBuffer stamped{cfg.n_steps};
  RolloutBuffer cleared{cfg.n_steps};
  fill_stamped_and_cleared(hits, cfg.n_steps, stamped, cleared);
  // The misses recompute their forwards inside the pool's per-sample tasks;
  // the gradient step must not care which thread does it.
  netadv::util::ThreadPool pool{3};
  hits.run_update_epochs(stamped, nullptr);
  misses.run_update_epochs(cleared, &pool);
  expect_same_params(hits, misses);
  ASSERT_EQ(hits.log_std(), misses.log_std());
}

/// One full-batch epoch: no optimizer step lands before any sample is
/// scored, so every stamped sample reuses its rollout activations.
PpoConfig full_batch_config() {
  PpoConfig cfg = small_config();
  cfg.minibatch_size = cfg.n_steps;
  cfg.epochs = 1;
  return cfg;
}

// small_config() runs several minibatches per epoch: the first minibatch's
// stamped samples hit, and every later one misses because the optimizer step
// bumped the versions. A stale hit there would change the parameters.

TEST(ActivationCache, TrainedParametersBitIdenticalCacheOnOrOff) {
  const ContextualBanditEnv shape{2, 3, 16};
  expect_cache_hits_match_misses(shape, full_batch_config(), 53);
  expect_cache_hits_match_misses(shape, small_config(), 53);
}

TEST(ActivationCache, ContinuousActionTrainingBitIdenticalCacheOnOrOff) {
  const TargetChaseEnv shape{16};
  expect_cache_hits_match_misses(shape, full_batch_config(), 59);
  expect_cache_hits_match_misses(shape, small_config(), 59);
}

TEST(ActionSpec, PhysicalMappingClipsAndScales) {
  const ActionSpec spec = ActionSpec::continuous({6.0, 15.0}, {24.0, 60.0});
  const Vec mid = spec.to_physical({0.0, 0.0});
  EXPECT_DOUBLE_EQ(mid[0], 15.0);
  EXPECT_DOUBLE_EQ(mid[1], 37.5);
  const Vec clipped = spec.to_physical({-7.0, 9.0});
  EXPECT_DOUBLE_EQ(clipped[0], 6.0);
  EXPECT_DOUBLE_EQ(clipped[1], 60.0);
  const Vec back = spec.to_normalized({15.0, 37.5});
  EXPECT_NEAR(back[0], 0.0, 1e-12);
  EXPECT_NEAR(back[1], 0.0, 1e-12);
}

}  // namespace
