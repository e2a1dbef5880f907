#include "core/trainer.hpp"

#include <algorithm>
#include <memory>
#include <optional>
#include <stdexcept>
#include <utility>

#include "core/recorder.hpp"
#include "rl/checkpoint.hpp"
#include "util/log.hpp"

namespace netadv::core {

rl::PpoConfig adversary_ppo_config(TargetDomain domain) {
  rl::PpoConfig cfg;
  // PPO with the stable-baselines defaults except a constant learning rate;
  // only the network and the entropy bonus differ per domain.
  cfg.learning_rate = 3e-4;
  cfg.n_steps = 2048;
  cfg.minibatch_size = 128;
  cfg.epochs = 10;
  cfg.initial_log_std = -0.3;
  switch (domain) {
    case TargetDomain::kAbr:
      // "a neural network with two fully connected hidden layers, the first
      // with 32 neurons and the second with 16" (Section 3).
      cfg.hidden_sizes = {32, 16};
      cfg.ent_coef = 0.005;
      return cfg;
    case TargetDomain::kCc:
      // "a simple neural network with only one hidden layer of 4 neurons"
      // (Section 4).
      cfg.hidden_sizes = {4};
      cfg.ent_coef = 0.001;
      return cfg;
    case TargetDomain::kAny:
      break;
  }
  throw std::invalid_argument{
      "adversary_ppo_config: no trainable config for domain 'any'"};
}

rl::PpoConfig abr_adversary_ppo_config() {
  return adversary_ppo_config(TargetDomain::kAbr);
}

rl::PpoConfig cc_adversary_ppo_config() {
  return adversary_ppo_config(TargetDomain::kCc);
}

rl::PpoAgent train_adversary(rl::Env& env, const rl::PpoConfig& config,
                             std::size_t steps, std::uint64_t seed,
                             const rl::TrainCallback& callback,
                             util::ThreadPool* pool) {
  rl::PpoAgent agent{env.observation_size(), env.action_spec(), config, seed};
  agent.set_thread_pool(pool);
  agent.train(env, steps, callback);
  agent.set_thread_pool(nullptr);
  return agent;
}

rl::PpoAgent restore_adversary(const rl::Env& env, const rl::PpoConfig& config,
                               const std::string& checkpoint) {
  rl::PpoAgent agent{env.observation_size(), env.action_spec(), config,
                     /*seed=*/0};
  rl::load_checkpoint(agent, checkpoint);
  return agent;
}

std::vector<rl::PpoAgent> train_adversaries(
    const std::vector<AdversaryJob>& jobs, util::ThreadPool* pool) {
  // PpoAgent is not default-constructible, so tasks fill optional slots.
  std::vector<std::optional<rl::PpoAgent>> slots(jobs.size());
  util::parallel_for(pool, jobs.size(), [&](std::size_t i) {
    const AdversaryJob& job = jobs[i];
    if (job.env == nullptr) {
      throw std::invalid_argument{"train_adversaries: null env"};
    }
    slots[i].emplace(train_adversary(*job.env, job.config, job.steps,
                                     job.seed, nullptr, pool));
  });
  std::vector<rl::PpoAgent> agents;
  agents.reserve(jobs.size());
  for (auto& slot : slots) agents.push_back(std::move(*slot));
  return agents;
}

RobustifyResult robustify_pensieve(rl::PpoAgent& pensieve,
                                   abr::PensieveEnv& env,
                                   const RobustifyConfig& config) {
  if (config.inject_fraction <= 0.0) {
    throw std::invalid_argument{"robustify_pensieve: bad inject_fraction"};
  }

  RobustifyResult result;
  const double frac = std::min(config.inject_fraction, 1.0);
  const auto phase1_steps = static_cast<std::size_t>(
      static_cast<double>(config.protocol_steps) * frac);

  // Borrow the pool for the protocol's own gradient steps for the duration
  // of the pipeline (bit-identical either way). The guard restores the
  // caller's pool on every exit, a throw included, so `pensieve` never keeps
  // a pointer to a pool it does not own.
  struct PoolBorrow {
    PoolBorrow(rl::PpoAgent& a, util::ThreadPool* pool)
        : agent{a}, saved{a.thread_pool()} {
      if (pool != nullptr) agent.set_thread_pool(pool);
    }
    PoolBorrow(const PoolBorrow&) = delete;
    PoolBorrow& operator=(const PoolBorrow&) = delete;
    ~PoolBorrow() { agent.set_thread_pool(saved); }
    rl::PpoAgent& agent;
    util::ThreadPool* const saved;
  } const borrow{pensieve, config.pool};

  // (1) Train the protocol of interest.
  util::log_info("robustify: phase 1, %zu steps on %zu traces", phase1_steps,
                 env.traces().size());
  result.phase1 = pensieve.train(env, phase1_steps);
  if (frac >= 1.0) return result;  // baseline: no adversarial injection

  // (2) Train an adversary against the partially trained protocol.
  abr::PensievePolicy target{pensieve};
  AbrAdversaryEnv adv_env{env.manifest(), target, config.adversary_params};
  util::log_info("robustify: training adversary for %zu steps",
                 config.adversary_steps);
  rl::PpoAgent adversary{adv_env.observation_size(), adv_env.action_spec(),
                         abr_adversary_ppo_config(), config.seed + 17};
  adversary.set_thread_pool(config.pool);
  result.adversary_report = adversary.train(adv_env, config.adversary_steps);

  // (3) Generate adversarial traces from the trained adversary, fanning one
  // (cloned adversary, cloned target, fresh env) triple per trace across the
  // pool.
  result.adversarial_traces = record_abr_traces(
      adversary, env.manifest(),
      [&pensieve]() -> std::unique_ptr<abr::AbrProtocol> {
        return std::make_unique<abr::OwnedPensievePolicy>(pensieve);
      },
      config.adversary_params, config.adversarial_traces, config.seed + 29,
      /*deterministic=*/false, config.pool);

  // (4) Continue training on the augmented dataset.
  std::vector<trace::Trace> augmented = env.traces();
  augmented.insert(augmented.end(), result.adversarial_traces.begin(),
                   result.adversarial_traces.end());
  env.set_traces(std::move(augmented));
  const std::size_t phase2_steps = config.protocol_steps - phase1_steps;
  util::log_info("robustify: phase 2, %zu steps on %zu traces", phase2_steps,
                 env.traces().size());
  result.phase2 = pensieve.train(env, phase2_steps);
  return result;
}

}  // namespace netadv::core
