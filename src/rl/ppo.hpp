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
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace netadv::rl {

struct PpoConfig {
  std::vector<std::size_t> hidden_sizes{64, 64};
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

  /// Deterministic actions over N observations as one N-row forward;
  /// bit-identical to N act_deterministic calls.
  std::vector<Vec> act_deterministic_batch(const std::vector<Vec>& observations);

  /// Run PPO for at least `total_steps` environment steps (rounded up to a
  /// whole number of rollouts).
  TrainReport train(Env& env, std::size_t total_steps,
                    const TrainCallback& callback = nullptr);

  /// Mean raw episode reward over `episodes` fresh episodes.
  double evaluate(Env& env, std::size_t episodes, util::Rng& rng,
                  bool deterministic = true);

  /// Attach the pool train()'s minibatch gradient step fans out over
  /// (nullptr runs it on the calling thread).
  ///
  /// Determinism contract: the gradient step runs the same arithmetic at
  /// every pool size. Per-sample backprop deltas land in per-sample slots;
  /// the weight gradients are then summed by tasks that each own a block of
  /// gradient rows and add the samples' contributions in ascending sample
  /// order (see update_minibatch). Every gradient element therefore gets
  /// the same adds in the same order at 1, 2 or N threads, and trained
  /// parameters are byte-identical, including with no pool at all. The
  /// pool is borrowed, not owned — it must outlive every train() call.
  void set_thread_pool(util::ThreadPool* pool) noexcept { pool_ = pool; }
  util::ThreadPool* thread_pool() const noexcept { return pool_; }

  struct MinibatchStats {
    double policy_loss = 0.0;
    double value_loss = 0.0;
    double entropy = 0.0;
  };

  /// The shuffled-minibatch epochs of one train() update:
  /// config().epochs passes of shuffled minibatches over `buffer`, one
  /// optimizer step per minibatch, each fanned out over `pool` (null runs
  /// on the caller; the result is the same). Public so tests and benches
  /// can drive the gradient phase against an externally assembled rollout;
  /// train() is the normal entry point.
  MinibatchStats run_update_epochs(const RolloutBuffer& buffer,
                                   util::ThreadPool* pool);

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
  bool discrete() const noexcept {
    return action_spec_.type == ActionType::kDiscrete;
  }

  /// update_minibatch's buffers (defined in ppo.cpp).
  struct MinibatchBuffers;
  /// Sample k's loss terms and loss-head gradients, read from row k of the
  /// minibatch's activation arenas. Writes (never accumulates) the sample's
  /// own slots: dLoss/dOutput into the tails of its two delta records (where
  /// Mlp::backward_rows reads them) and its terms row, [policy loss, value
  /// loss, entropy, log_std grad...]. Const — reads parameters only — so
  /// samples run concurrently.
  void loss_head_sample(const Transition& t, std::size_t k, double inv_batch,
                        MinibatchBuffers& buf) const;
  MinibatchStats update_minibatch(const RolloutBuffer& buffer,
                                  const std::vector<std::size_t>& indices,
                                  std::size_t begin, std::size_t end,
                                  util::ThreadPool* pool,
                                  MinibatchBuffers& buf);

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

  // Inference activations, kept across calls: a one-row arena per net,
  // laid out at construction, for every single-observation forward, and
  // the actor's N rows of act_deterministic_batch, whose reset() reuses the
  // allocation.
  Mlp::Arena actor_row_;
  Mlp::Arena critic_row_;
  Mlp::Arena actor_rows_;

  util::ThreadPool* pool_ = nullptr;
};

}  // namespace netadv::rl
