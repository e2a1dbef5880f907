// The trainable-agent interface, so protocols and recorders can hold "an RL
// policy" without committing to an algorithm. Pensieve originally trained
// with A3C, and netadv trains with PPO: PpoAgent is the one implementation.
#pragma once

#include <cstddef>
#include <functional>

#include "rl/env.hpp"
#include "rl/matrix.hpp"
#include "util/rng.hpp"

namespace netadv::rl {

/// Aggregate statistics of a train() call.
struct TrainReport {
  std::size_t steps = 0;
  std::size_t updates = 0;
  std::size_t episodes = 0;
  double mean_episode_reward = 0.0;       // over the whole run
  double final_mean_episode_reward = 0.0; // over the last 10% of episodes
  double final_policy_loss = 0.0;
  double final_value_loss = 0.0;
  double final_entropy = 0.0;
};

/// Per-update progress snapshot passed to the training callback.
struct UpdateInfo {
  std::size_t update_index = 0;
  std::size_t total_steps_done = 0;
  double mean_episode_reward = 0.0;  // over episodes finished this update
  double policy_loss = 0.0;
  double value_loss = 0.0;
  double entropy = 0.0;
};

using TrainCallback = std::function<void(const UpdateInfo&)>;

class Agent {
 public:
  virtual ~Agent() = default;

  /// Sample an action from the current policy (no statistics updates).
  virtual Vec act_stochastic(const Vec& observation, util::Rng& rng) = 0;

  /// Deterministic action: categorical mode or Gaussian mean.
  virtual Vec act_deterministic(const Vec& observation) = 0;

  /// Critic estimate of an observation's value.
  virtual double value_estimate(const Vec& observation) = 0;

  /// Run the algorithm for at least `total_steps` environment steps.
  virtual TrainReport train(Env& env, std::size_t total_steps,
                            const TrainCallback& callback = nullptr) = 0;

  virtual std::size_t observation_size() const = 0;
  virtual const ActionSpec& action_spec() const = 0;

  /// Mean raw episode reward over `episodes` fresh episodes.
  double evaluate(Env& env, std::size_t episodes, util::Rng& rng,
                  bool deterministic = true);
};

}  // namespace netadv::rl
