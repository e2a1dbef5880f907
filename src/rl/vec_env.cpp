#include "rl/vec_env.hpp"

namespace netadv::rl {

VecEnv::VecEnv(const Factory& factory, std::size_t n, std::uint64_t seed,
               util::ThreadPool* pool)
    : pool_(pool) {
  if (n == 0) throw std::invalid_argument{"VecEnv: need at least one replica"};
  util::Rng master{seed};
  rngs_ = master.fork_streams(n);
  envs_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    auto env = factory(i);
    if (!env) throw std::invalid_argument{"VecEnv: factory returned null"};
    envs_.push_back(std::move(env));
  }
  const std::size_t obs = envs_.front()->observation_size();
  for (const auto& env : envs_) {
    if (env->observation_size() != obs) {
      throw std::invalid_argument{"VecEnv: replicas disagree on observation size"};
    }
  }
}

const std::vector<Vec>& VecEnv::reset_all() {
  reset_obs_.assign(size(), Vec{});
  util::parallel_for(pool_, size(), [this](std::size_t i) {
    reset_obs_[i] = envs_[i]->reset(rngs_[i]);
  });
  return reset_obs_;
}

const VecEnv::StepBatch& VecEnv::step(const std::vector<Vec>& actions) {
  if (actions.size() != size()) {
    throw std::invalid_argument{"VecEnv::step: one action per replica required"};
  }
  batch_.observations.assign(size(), Vec{});
  batch_.rewards.assign(size(), 0.0);
  batch_.dones.assign(size(), 0);
  util::parallel_for(pool_, size(), [this, &actions](std::size_t i) {
    StepResult result = envs_[i]->step(actions[i], rngs_[i]);
    batch_.rewards[i] = result.reward;
    batch_.dones[i] = result.done ? 1 : 0;
    batch_.observations[i] =
        result.done ? envs_[i]->reset(rngs_[i]) : std::move(result.observation);
  });
  return batch_;
}

}  // namespace netadv::rl
