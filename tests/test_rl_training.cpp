// End-to-end correctness gates for the PPO trainer: it must solve the toy
// environments with known optima, and checkpoints must round-trip.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "rl/checkpoint.hpp"
#include "rl/ppo.hpp"
#include "rl/toy_envs.hpp"
#include "util/log.hpp"

namespace {

using namespace netadv::rl;
using netadv::util::Rng;

/// Bit-for-bit equality: tells -0.0 from 0.0 and compares NaN payloads.
bool same_bits(std::span<const double> a, std::span<const double> b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

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
TEST(MlpArena, AgentInferenceReusesArenasAcrossRowCounts) {
  // One agent's inference arenas serve every call: act_deterministic,
  // act_stochastic and act_deterministic_batch at N = 0, 1, 5 and 17,
  // interleaved, each over different observations. Every result must equal,
  // bit for bit, that of a fresh copy of the agent making the same call, so
  // nothing one call leaves in an arena reaches the next.
  PpoConfig cfg = small_config();
  cfg.hidden_sizes = {13, 7};
  const std::size_t obs_size = 9;
  for (const ActionSpec& spec :
       {ActionSpec::discrete(4),
        ActionSpec::continuous({-1.0, 0.0, -2.0}, {1.0, 3.0, 2.0})}) {
    PpoAgent pristine{obs_size, spec, cfg, 41};
    Rng rng{43};
    std::vector<Vec> pool(17, Vec(obs_size));
    for (Vec& x : pool) {
      for (double& v : x) v = rng.uniform(-3.0, 3.0);
      pristine.obs_normalizer().update(x);
    }
    const auto observations = [&](std::size_t n, std::size_t first) {
      std::vector<Vec> out;
      for (std::size_t i = 0; i < n; ++i) {
        out.push_back(pool[(first + i) % pool.size()]);
      }
      return out;
    };
    enum class Call { kDeterministic, kStochastic, kBatch };
    struct Step {
      Call call;
      std::size_t n;      // batch rows
      std::size_t first;  // first observation; the stochastic call's seed
    };
    const Step steps[] = {
        {Call::kBatch, 17, 0},         {Call::kDeterministic, 1, 3},
        {Call::kBatch, 0, 0},          {Call::kStochastic, 1, 5},
        {Call::kBatch, 5, 7},          {Call::kBatch, 1, 2},
        {Call::kDeterministic, 1, 11}, {Call::kBatch, 17, 4},
        {Call::kStochastic, 1, 9},     {Call::kBatch, 5, 1},
        {Call::kBatch, 0, 0},          {Call::kDeterministic, 1, 0},
        {Call::kBatch, 1, 16},         {Call::kStochastic, 1, 2}};
    PpoAgent agent = pristine;
    for (std::size_t i = 0; i < std::size(steps); ++i) {
      const Step& step = steps[i];
      PpoAgent fresh = pristine;
      std::vector<Vec> got, want;
      const std::vector<Vec> obs = observations(step.n, step.first);
      switch (step.call) {
        case Call::kDeterministic:
          got = {agent.act_deterministic(obs[0])};
          want = {fresh.act_deterministic(obs[0])};
          break;
        case Call::kStochastic: {
          Rng a{step.first};
          Rng b{step.first};
          got = {agent.act_stochastic(obs[0], a)};
          want = {fresh.act_stochastic(obs[0], b)};
          break;
        }
        case Call::kBatch:
          got = agent.act_deterministic_batch(obs);
          want = fresh.act_deterministic_batch(obs);
          break;
      }
      ASSERT_EQ(got.size(), step.n) << "step " << i;
      ASSERT_EQ(want.size(), step.n) << "step " << i;
      for (std::size_t k = 0; k < step.n; ++k) {
        EXPECT_TRUE(same_bits(got[k], want[k])) << "step " << i << " row " << k;
      }
    }
  }
}

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
  }
  EXPECT_TRUE(same_bits(agent.critic().params(), restored.critic().params()));
  std::remove(path.c_str());
}

TEST(Checkpoint, SaveReportsAFullDisk) {
  if (!std::filesystem::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  ContextualBanditEnv env{2, 3, 16};
  const PpoAgent agent{env.observation_size(), env.action_spec(),
                       small_config(), 29};
  EXPECT_THROW(save_checkpoint(agent, "/dev/full"), std::runtime_error);
}

std::string read_file(const std::string& path) {
  std::ifstream in{path, std::ios::binary};
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream out{path, std::ios::binary};
  out << text;
}

/// The text save_checkpoint writes for `agent`.
std::string checkpoint_text(const PpoAgent& agent) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "netadv_ckpt_text.txt")
          .string();
  save_checkpoint(agent, path);
  const std::string text = read_file(path);
  std::remove(path.c_str());
  return text;
}

/// Every field load_checkpoint writes must be bit-equal in both agents.
void expect_same_loaded_state(const PpoAgent& agent,
                              const PpoAgent& reference) {
  const auto as_vec = [](std::span<const double> xs) {
    return std::vector<double>(xs.begin(), xs.end());
  };
  EXPECT_EQ(as_vec(agent.actor().params()), as_vec(reference.actor().params()));
  EXPECT_EQ(as_vec(agent.critic().params()),
            as_vec(reference.critic().params()));
  EXPECT_EQ(agent.log_std(), reference.log_std());
  EXPECT_EQ(agent.obs_normalizer().mean(), reference.obs_normalizer().mean());
  EXPECT_EQ(agent.obs_normalizer().m2(), reference.obs_normalizer().m2());
  EXPECT_EQ(agent.obs_normalizer().count(),
            reference.obs_normalizer().count());
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
  const std::string obs_error = load_error(wrong_obs, path);
  EXPECT_NE(obs_error.find("observation size mismatch in " + path),
            std::string::npos)
      << obs_error;

  PpoAgent wrong_actions{2, ActionSpec::discrete(4), small_config(), 31};
  const std::string action_error = load_error(wrong_actions, path);
  EXPECT_NE(action_error.find("action space mismatch in " + path),
            std::string::npos)
      << action_error;
  std::remove(path.c_str());
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

  // obs_count is a declared count too. `>>` into a size_t would read -1 as
  // 2^64 - 1 and 12abc as 12; both must fail, naming the key and the file.
  const std::string saved = checkpoint_text(agent);
  const std::string bad_count = (dir / "netadv_ckpt_bad_count.txt").string();
  for (const std::string count : {"-1", "12abc", "+3"}) {
    write_file(bad_count,
               saved.substr(0, saved.rfind("obs_count ")) + "obs_count " +
                   count + "\n");
    const std::string count_error = load_error(agent, bad_count);
    EXPECT_NE(count_error.find("obs_count '" + count + "'"), std::string::npos)
        << count_error;
    EXPECT_NE(count_error.find(bad_count), std::string::npos) << count_error;
  }

  std::remove(huge_vector.c_str());
  std::remove(huge_meta.c_str());
  std::remove(bad_count.c_str());
}

TEST(Checkpoint, TornFileLeavesTheAgentUntouched) {
  // A file cut short after any line (or with a bad obs_count) must throw an
  // error naming the file and leave every loaded field as it was: the
  // loader checks all of them before it assigns any, so a caller that
  // catches the error never trains on a half-loaded actor.
  TargetChaseEnv env{16};
  PpoAgent trained{env.observation_size(), env.action_spec(), small_config(),
                   29};
  trained.train(env, 512);
  const std::string text = checkpoint_text(trained);
  std::vector<std::string> torn;
  for (std::size_t end = text.find('\n'); end + 1 < text.size();
       end = text.find('\n', end + 1)) {
    torn.push_back(text.substr(0, end + 1));
  }
  torn.push_back(text.substr(0, text.rfind("obs_count ")) + "obs_count -1\n");

  const PpoAgent fresh{env.observation_size(), env.action_spec(),
                       small_config(), 509};
  const std::string path =
      (std::filesystem::temp_directory_path() / "netadv_ckpt_torn.txt")
          .string();
  for (const std::string& body : torn) {
    write_file(path, body);
    PpoAgent agent = fresh;
    const std::string error = load_error(agent, path);
    EXPECT_NE(error.find(path), std::string::npos) << error;
    expect_same_loaded_state(agent, fresh);
  }
  std::remove(path.c_str());
}

TEST(Checkpoint, MissingFileThrows) {
  ContextualBanditEnv env{2, 2, 8};
  PpoAgent agent{env.observation_size(), env.action_spec(), small_config(), 37};
  EXPECT_THROW(load_checkpoint(agent, "/nonexistent/ckpt.txt"),
               std::runtime_error);
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
