// Proximal Policy Optimization (clip variant; Schulman et al., 2017) over
// the Env interface, with the stable-baselines default hyperparameters the
// paper relied on: clipped surrogate, GAE(lambda), several epochs of
// shuffled minibatches per rollout, entropy bonus, global gradient-norm
// clipping, and observation/return normalization.
//
// The actor and critic are separate MLPs. Discrete action spaces use a
// categorical head; continuous spaces use a diagonal Gaussian whose log-std
// is a learned state-independent parameter vector.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "rl/adam.hpp"
#include "rl/agent.hpp"
#include "rl/env.hpp"
#include "rl/mlp.hpp"
#include "rl/normalizer.hpp"
#include "rl/rollout.hpp"
#include "rl/vec_env.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace netadv::rl {

struct PpoConfig {
  std::vector<std::size_t> hidden_sizes{64, 64};
  Activation activation = Activation::kTanh;
  double learning_rate = 3e-4;
  std::size_t n_steps = 2048;        // rollout horizon per update
  std::size_t minibatch_size = 64;
  std::size_t epochs = 10;
  double gamma = 0.99;
  double gae_lambda = 0.95;
  double clip_range = 0.2;
  double ent_coef = 0.0;
  double vf_coef = 0.5;
  double max_grad_norm = 0.5;
  double initial_log_std = 0.0;      // continuous head only
  bool normalize_observations = true;
  bool normalize_rewards = true;
};

class PpoAgent {
 public:
  PpoAgent(std::size_t observation_size, ActionSpec action_spec,
           PpoConfig config, std::uint64_t seed);

  /// Sample an action from the current policy. Does not update normalizer
  /// statistics; safe for evaluation.
  Vec act_stochastic(const Vec& observation, util::Rng& rng);

  /// Deterministic action: categorical mode or Gaussian mean (the paper's
  /// "actions before exploration noise", Figure 6).
  Vec act_deterministic(const Vec& observation);

  /// Batched deterministic actions over N observations through the gemm
  /// forward path; bit-identical to N act_deterministic calls.
  std::vector<Vec> act_deterministic_batch(const std::vector<Vec>& observations);

  /// Critic estimate of the (normalized-reward) value of an observation.
  double value_estimate(const Vec& observation);

  /// Run PPO for at least `total_steps` environment steps (rounded up to a
  /// whole number of rollouts).
  TrainReport train(Env& env, std::size_t total_steps,
                    const TrainCallback& callback = nullptr);

  /// Vectorized PPO: each update's rollout is collected from venv.size()
  /// replicas stepped concurrently (n_steps / size() steps per replica,
  /// batched policy/critic inference, per-segment GAE). Action sampling and
  /// every replica's dynamics run on the replica's private RNG stream, so
  /// the trained parameters depend only on the seed and replica count —
  /// never on the pool's thread count.
  TrainReport train(VecEnv& venv, std::size_t total_steps,
                    const TrainCallback& callback = nullptr);

  /// Mean raw episode reward over `episodes` fresh episodes.
  double evaluate(Env& env, std::size_t episodes, util::Rng& rng,
                  bool deterministic = true);

  /// Attach a pool for shadow-buffer minibatch gradients (nullptr restores
  /// the sequential path).
  ///
  /// Determinism contract: with a pool attached, each minibatch sample's
  /// gradient is computed into a private per-sample shadow buffer against
  /// the (read-only) current parameters, then the shadow buffers are reduced
  /// on the calling thread in sample-index order. Because every sample
  /// contributes exactly one accumulation term per parameter, the reduction
  /// reproduces the sequential left-to-right float accumulation bit for bit:
  /// trained parameters are byte-identical at any pool size, including no
  /// pool at all. The pool is borrowed, not owned — it must outlive every
  /// train() call.
  void set_thread_pool(util::ThreadPool* pool) noexcept { pool_ = pool; }
  util::ThreadPool* thread_pool() const noexcept { return pool_; }

  struct MinibatchStats {
    double policy_loss = 0.0;
    double value_loss = 0.0;
    double entropy = 0.0;
  };

  /// The shuffled-minibatch epochs shared by both train() entry points:
  /// config().epochs passes of shuffled minibatches over `buffer`, one
  /// optimizer step per minibatch. Each sample reuses the forward
  /// activations its transition recorded at rollout time while their version
  /// stamps still match the networks (bit-identical reuse — see
  /// ActivationCache in rl/rollout.hpp) and recomputes them otherwise.
  /// Public so tests can drive the gradient phase against an externally
  /// assembled rollout (e.g. one with stale stamps); train() is the normal
  /// entry point.
  MinibatchStats run_update_epochs(const RolloutBuffer& buffer);

  const PpoConfig& config() const noexcept { return config_; }
  const ActionSpec& action_spec() const noexcept { return action_spec_; }
  std::size_t observation_size() const noexcept { return obs_size_; }

  // Checkpoint access (see rl/checkpoint.hpp).
  Mlp& actor() noexcept { return actor_; }
  const Mlp& actor() const noexcept { return actor_; }
  Mlp& critic() noexcept { return critic_; }
  const Mlp& critic() const noexcept { return critic_; }
  Vec& log_std() noexcept { return log_std_; }
  const Vec& log_std() const noexcept { return log_std_; }
  RunningNormalizer& obs_normalizer() noexcept { return obs_normalizer_; }
  const RunningNormalizer& obs_normalizer() const noexcept {
    return obs_normalizer_;
  }

 private:
  Vec normalized(const Vec& observation) const;
  bool discrete() const noexcept {
    return action_spec_.type == ActionType::kDiscrete;
  }

  /// Activation caches for one concurrent per-sample gradient task.
  struct GradWorkspace {
    Mlp::Workspace actor;
    Mlp::Workspace critic;
  };
  /// One sample's loss terms and parameter gradients, *accumulated* into the
  /// caller's buffers (actor/critic grads, log_std grad, and the three
  /// MinibatchStats terms in stats_terms). Const — reads parameters only —
  /// so tasks with distinct buffers can run it concurrently. Sequential and
  /// shadow-buffer minibatches both run exactly this routine, which is what
  /// makes them bit-identical.
  void accumulate_sample(const Transition& t, double inv_batch,
                         std::span<double> actor_grads,
                         std::span<double> critic_grads,
                         std::span<double> log_std_grads,
                         std::span<double> stats_terms,
                         GradWorkspace& ws) const;
  MinibatchStats update_minibatch(const RolloutBuffer& buffer,
                                  const std::vector<std::size_t>& indices,
                                  std::size_t begin, std::size_t end);

  std::size_t obs_size_;
  ActionSpec action_spec_;
  PpoConfig config_;
  util::Rng rng_;

  Mlp actor_;
  Mlp critic_;
  Vec log_std_;        // continuous head parameter
  Vec log_std_grad_;

  Adam actor_opt_;
  Adam critic_opt_;
  Adam log_std_opt_;

  RunningNormalizer obs_normalizer_;
  ReturnNormalizer return_normalizer_;

  // Shadow-buffer minibatch scratch (see set_thread_pool). Not part of the
  // agent's logical state; copied agents just get fresh scratch.
  util::ThreadPool* pool_ = nullptr;
  std::vector<double> shadow_grads_;   // per-sample [actor|critic|log_std]
  std::vector<double> shadow_stats_;   // per-sample 3 loss terms
  std::vector<GradWorkspace> sample_ws_;
};

}  // namespace netadv::rl
