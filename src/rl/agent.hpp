// Training progress types shared by the agent (rl/ppo.hpp) and its callers:
// the train() report, the per-update snapshot, and the callback type.
#pragma once

#include <cstddef>
#include <functional>

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

}  // namespace netadv::rl
