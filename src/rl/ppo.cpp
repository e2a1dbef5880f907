#include "rl/ppo.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "rl/distributions.hpp"
#include "rl/kernels.hpp"

namespace netadv::rl {

namespace {

std::vector<std::size_t> make_actor_sizes(std::size_t obs,
                                          const PpoConfig& cfg,
                                          const ActionSpec& spec) {
  std::vector<std::size_t> sizes{obs};
  sizes.insert(sizes.end(), cfg.hidden_sizes.begin(), cfg.hidden_sizes.end());
  sizes.push_back(spec.type == ActionType::kDiscrete ? spec.num_actions
                                                     : spec.low.size());
  return sizes;
}

std::vector<std::size_t> make_critic_sizes(std::size_t obs,
                                           const PpoConfig& cfg) {
  std::vector<std::size_t> sizes{obs};
  sizes.insert(sizes.end(), cfg.hidden_sizes.begin(), cfg.hidden_sizes.end());
  sizes.push_back(1);
  return sizes;
}

/// Fill the episode-statistics tail of a TrainReport.
void finalize_report(TrainReport& report, std::size_t steps_done,
                     const std::vector<double>& episode_rewards) {
  report.steps = steps_done;
  report.episodes = episode_rewards.size();
  if (!episode_rewards.empty()) {
    double sum = 0.0;
    for (double r : episode_rewards) sum += r;
    report.mean_episode_reward =
        sum / static_cast<double>(episode_rewards.size());
    const std::size_t tail =
        std::max<std::size_t>(1, episode_rewards.size() / 10);
    double tail_sum = 0.0;
    for (std::size_t i = episode_rewards.size() - tail;
         i < episode_rewards.size(); ++i) {
      tail_sum += episode_rewards[i];
    }
    report.final_mean_episode_reward = tail_sum / static_cast<double>(tail);
  }
}

}  // namespace

PpoAgent::PpoAgent(std::size_t observation_size, ActionSpec action_spec,
                   PpoConfig config, std::uint64_t seed)
    : obs_size_(observation_size),
      action_spec_(std::move(action_spec)),
      config_(std::move(config)),
      rng_(seed),
      actor_(make_actor_sizes(observation_size, config_, action_spec_),
             config_.activation, /*final_gain=*/0.01, rng_),
      critic_(make_critic_sizes(observation_size, config_),
              config_.activation, /*final_gain=*/1.0, rng_),
      actor_opt_(actor_.param_count(), {.learning_rate = config_.learning_rate}),
      critic_opt_(critic_.param_count(),
                  {.learning_rate = config_.learning_rate}),
      log_std_opt_(action_spec_.type == ActionType::kContinuous
                       ? action_spec_.low.size()
                       : 0,
                   {.learning_rate = config_.learning_rate}),
      obs_normalizer_(observation_size),
      return_normalizer_(config_.gamma) {
  if (observation_size == 0) {
    throw std::invalid_argument{"PpoAgent: observation_size must be > 0"};
  }
  if (action_spec_.type == ActionType::kDiscrete &&
      action_spec_.num_actions < 2) {
    throw std::invalid_argument{"PpoAgent: discrete space needs >= 2 actions"};
  }
  if (action_spec_.type == ActionType::kContinuous) {
    if (action_spec_.low.empty() ||
        action_spec_.low.size() != action_spec_.high.size()) {
      throw std::invalid_argument{"PpoAgent: bad continuous action bounds"};
    }
    log_std_.assign(action_spec_.low.size(), config_.initial_log_std);
    log_std_grad_.assign(action_spec_.low.size(), 0.0);
  }
  if (config_.minibatch_size == 0 || config_.minibatch_size > config_.n_steps) {
    throw std::invalid_argument{"PpoAgent: bad minibatch size"};
  }
}

Vec PpoAgent::normalized(const Vec& observation) const {
  return config_.normalize_observations ? obs_normalizer_.normalize(observation)
                                        : observation;
}

Vec PpoAgent::act_stochastic(const Vec& observation, util::Rng& rng) {
  const Vec& head = actor_.forward(normalized(observation));
  if (discrete()) {
    return {static_cast<double>(Categorical::sample(head, rng))};
  }
  return DiagGaussian::sample(head, log_std_, rng);
}

Vec PpoAgent::act_deterministic(const Vec& observation) {
  const Vec& head = actor_.forward(normalized(observation));
  if (discrete()) {
    return {static_cast<double>(Categorical::mode(head))};
  }
  return head;
}

std::vector<Vec> PpoAgent::act_deterministic_batch(
    const std::vector<Vec>& observations) {
  std::vector<Vec> norm(observations.size());
  for (std::size_t i = 0; i < observations.size(); ++i) {
    norm[i] = normalized(observations[i]);
  }
  std::vector<Vec> heads = actor_.forward_batch(norm);
  if (discrete()) {
    std::vector<Vec> actions(heads.size());
    for (std::size_t i = 0; i < heads.size(); ++i) {
      actions[i] = {static_cast<double>(Categorical::mode(heads[i]))};
    }
    return actions;
  }
  return heads;
}

double PpoAgent::value_estimate(const Vec& observation) {
  return critic_.forward(normalized(observation))[0];
}

double PpoAgent::evaluate(Env& env, std::size_t episodes, util::Rng& rng,
                          bool deterministic) {
  double total = 0.0;
  for (std::size_t e = 0; e < episodes; ++e) {
    Vec obs = env.reset(rng);
    double episode_reward = 0.0;
    while (true) {
      const Vec action = deterministic ? act_deterministic(obs)
                                       : act_stochastic(obs, rng);
      StepResult result = env.step(action, rng);
      episode_reward += result.reward;
      if (result.done) break;
      obs = std::move(result.observation);
    }
    total += episode_reward;
  }
  return total / static_cast<double>(episodes);
}

TrainReport PpoAgent::train(Env& env, std::size_t total_steps,
                            const TrainCallback& callback) {
  if (env.observation_size() != obs_size_) {
    throw std::invalid_argument{"PpoAgent::train: env observation size mismatch"};
  }

  TrainReport report;
  RolloutBuffer buffer{config_.n_steps};

  Vec raw_obs = env.reset(rng_);
  double episode_reward = 0.0;
  std::vector<double> episode_rewards;

  std::size_t steps_done = 0;
  std::size_t update_index = 0;
  while (steps_done < total_steps) {
    buffer.clear();
    std::size_t episodes_this_update = 0;
    double episode_reward_sum_this_update = 0.0;

    while (!buffer.full()) {
      if (config_.normalize_observations) obs_normalizer_.update(raw_obs);
      const Vec obs = normalized(raw_obs);

      Transition t;
      t.observation = obs;
      // Forward into the transition's activation cache (bit-identical to
      // the member forward — same const workspace routine) so the gradient
      // epochs can reuse these activations.
      const Vec& head = actor_.forward(obs, t.cache.actor);
      t.cache.actor_version = actor_.param_version();
      t.value = critic_.forward(obs, t.cache.critic)[0];
      t.cache.critic_version = critic_.param_version();
      if (discrete()) {
        const std::size_t a = Categorical::sample(head, rng_);
        t.action = {static_cast<double>(a)};
        t.log_prob = Categorical::log_prob(head, a);
      } else {
        t.action = DiagGaussian::sample(head, log_std_, rng_);
        t.log_prob = DiagGaussian::log_prob(head, log_std_, t.action);
      }

      StepResult result = env.step(t.action, rng_);
      episode_reward += result.reward;
      t.reward = config_.normalize_rewards
                     ? return_normalizer_.normalize(result.reward, result.done)
                     : result.reward;
      t.done = result.done;
      buffer.add(std::move(t));
      ++steps_done;

      if (result.done) {
        episode_rewards.push_back(episode_reward);
        episode_reward_sum_this_update += episode_reward;
        ++episodes_this_update;
        episode_reward = 0.0;
        raw_obs = env.reset(rng_);
      } else {
        raw_obs = std::move(result.observation);
      }
    }

    const double last_value = critic_.forward(normalized(raw_obs))[0];
    buffer.compute_advantages(last_value, config_.gamma, config_.gae_lambda);

    const MinibatchStats last_stats = run_update_epochs(buffer);

    ++update_index;
    report.updates = update_index;
    report.final_policy_loss = last_stats.policy_loss;
    report.final_value_loss = last_stats.value_loss;
    report.final_entropy = last_stats.entropy;

    if (callback) {
      UpdateInfo info;
      info.update_index = update_index;
      info.total_steps_done = steps_done;
      info.mean_episode_reward =
          episodes_this_update > 0
              ? episode_reward_sum_this_update /
                    static_cast<double>(episodes_this_update)
              : 0.0;
      info.policy_loss = last_stats.policy_loss;
      info.value_loss = last_stats.value_loss;
      info.entropy = last_stats.entropy;
      callback(info);
    }
  }

  finalize_report(report, steps_done, episode_rewards);
  return report;
}

TrainReport PpoAgent::train(VecEnv& venv, std::size_t total_steps,
                            const TrainCallback& callback) {
  if (venv.observation_size() != obs_size_) {
    throw std::invalid_argument{"PpoAgent::train: env observation size mismatch"};
  }
  const std::size_t n_envs = venv.size();
  const std::size_t steps_per_env =
      std::max<std::size_t>(1, config_.n_steps / n_envs);
  const std::size_t rollout_len = steps_per_env * n_envs;
  if (config_.minibatch_size > rollout_len) {
    throw std::invalid_argument{
        "PpoAgent::train: minibatch larger than vectorized rollout"};
  }

  // Adopt the venv's pool for the gradient step unless the caller already
  // attached one; the shadow-buffer path is bit-identical to sequential, so
  // this only changes wall-clock. The borrow ends on every exit, a throw
  // from a replica's step included, so the agent never keeps a pointer to a
  // pool it does not own.
  struct PoolRestore {
    explicit PoolRestore(util::ThreadPool*& s) : slot{s}, saved{s} {}
    PoolRestore(const PoolRestore&) = delete;
    PoolRestore& operator=(const PoolRestore&) = delete;
    ~PoolRestore() { slot = saved; }
    util::ThreadPool*& slot;
    util::ThreadPool* const saved;
  } const restore_pool{pool_};
  if (pool_ == nullptr) pool_ = venv.pool();

  TrainReport report;
  RolloutBuffer buffer{rollout_len};

  // The running-return accumulator inside ReturnNormalizer is a temporal
  // filter over one reward stream, so each replica gets its own instance.
  std::vector<ReturnNormalizer> return_norms(
      n_envs, ReturnNormalizer{config_.gamma});

  std::vector<Vec> raw_obs = venv.reset_all();
  std::vector<double> episode_reward(n_envs, 0.0);
  std::vector<double> episode_rewards;
  std::vector<std::vector<Transition>> trajectories(n_envs);
  std::vector<Vec> norm_obs(n_envs);
  std::vector<Vec> actions(n_envs);
  std::vector<Mlp::Workspace> actor_caches;
  std::vector<Mlp::Workspace> critic_caches;

  std::size_t steps_done = 0;
  std::size_t update_index = 0;
  while (steps_done < total_steps) {
    buffer.clear();
    for (auto& traj : trajectories) {
      traj.clear();
      traj.reserve(steps_per_env);
    }
    std::size_t episodes_this_update = 0;
    double episode_reward_sum_this_update = 0.0;

    for (std::size_t step = 0; step < steps_per_env; ++step) {
      // Normalizer statistics fold in replica-index order — a fixed
      // sequence regardless of how many threads step the replicas.
      if (config_.normalize_observations) {
        for (const Vec& obs : raw_obs) obs_normalizer_.update(obs);
      }
      for (std::size_t i = 0; i < n_envs; ++i) {
        norm_obs[i] = normalized(raw_obs[i]);
      }

      const std::vector<Vec> heads =
          actor_.forward_batch(norm_obs, &actor_caches);
      const std::vector<Vec> values =
          critic_.forward_batch(norm_obs, &critic_caches);

      for (std::size_t i = 0; i < n_envs; ++i) {
        Transition t;
        t.observation = norm_obs[i];
        if (discrete()) {
          const std::size_t a = Categorical::sample(heads[i], venv.rng(i));
          t.action = {static_cast<double>(a)};
          t.log_prob = Categorical::log_prob(heads[i], a);
        } else {
          t.action = DiagGaussian::sample(heads[i], log_std_, venv.rng(i));
          t.log_prob = DiagGaussian::log_prob(heads[i], log_std_, t.action);
        }
        t.value = values[i][0];
        t.cache.actor = std::move(actor_caches[i]);
        t.cache.actor_version = actor_.param_version();
        t.cache.critic = std::move(critic_caches[i]);
        t.cache.critic_version = critic_.param_version();
        actions[i] = t.action;
        trajectories[i].push_back(std::move(t));
      }

      const VecEnv::StepBatch& result = venv.step(actions);
      for (std::size_t i = 0; i < n_envs; ++i) {
        Transition& t = trajectories[i].back();
        const bool done = result.dones[i] != 0;
        episode_reward[i] += result.rewards[i];
        t.reward = config_.normalize_rewards
                       ? return_norms[i].normalize(result.rewards[i], done)
                       : result.rewards[i];
        t.done = done;
        if (done) {
          episode_rewards.push_back(episode_reward[i]);
          episode_reward_sum_this_update += episode_reward[i];
          ++episodes_this_update;
          episode_reward[i] = 0.0;
        }
        raw_obs[i] = result.observations[i];
      }
      steps_done += n_envs;
    }

    for (std::size_t i = 0; i < n_envs; ++i) {
      norm_obs[i] = normalized(raw_obs[i]);
    }
    const std::vector<Vec> bootstrap = critic_.forward_batch(norm_obs);
    std::vector<double> last_values(n_envs);
    for (std::size_t i = 0; i < n_envs; ++i) last_values[i] = bootstrap[i][0];

    for (auto& traj : trajectories) {
      for (auto& t : traj) buffer.add(std::move(t));
    }
    buffer.compute_advantages_segmented(last_values, config_.gamma,
                                        config_.gae_lambda);

    const MinibatchStats last_stats = run_update_epochs(buffer);

    ++update_index;
    report.updates = update_index;
    report.final_policy_loss = last_stats.policy_loss;
    report.final_value_loss = last_stats.value_loss;
    report.final_entropy = last_stats.entropy;

    if (callback) {
      UpdateInfo info;
      info.update_index = update_index;
      info.total_steps_done = steps_done;
      info.mean_episode_reward =
          episodes_this_update > 0
              ? episode_reward_sum_this_update /
                    static_cast<double>(episodes_this_update)
              : 0.0;
      info.policy_loss = last_stats.policy_loss;
      info.value_loss = last_stats.value_loss;
      info.entropy = last_stats.entropy;
      callback(info);
    }
  }

  finalize_report(report, steps_done, episode_rewards);
  return report;
}

PpoAgent::MinibatchStats PpoAgent::run_update_epochs(
    const RolloutBuffer& buffer) {
  MinibatchStats last_stats;
  for (std::size_t epoch = 0; epoch < config_.epochs; ++epoch) {
    const auto indices = buffer.shuffled_indices(rng_);
    for (std::size_t begin = 0; begin < indices.size();
         begin += config_.minibatch_size) {
      const std::size_t end =
          std::min(begin + config_.minibatch_size, indices.size());
      last_stats = update_minibatch(buffer, indices, begin, end);
    }
  }
  return last_stats;
}

void PpoAgent::accumulate_sample(const Transition& t, double inv_batch,
                                 std::span<double> actor_grads,
                                 std::span<double> critic_grads,
                                 std::span<double> log_std_grads,
                                 std::span<double> stats_terms,
                                 GradWorkspace& ws) const {
  // Reuse the rollout-time activations when their version stamp still
  // matches the network (bit-identical — see ActivationCache); otherwise
  // recompute the forward into the task-private workspace. With the default
  // PPO schedule only the pre-first-optimizer-step minibatches hit, but a
  // full-batch single-epoch schedule reuses the whole rollout.
  const bool actor_cached = t.cache.actor_version == actor_.param_version();
  const bool critic_cached =
      t.cache.critic_version == critic_.param_version();
  const Mlp::Workspace& actor_ws = actor_cached ? t.cache.actor : ws.actor;
  const Mlp::Workspace& critic_ws = critic_cached ? t.cache.critic : ws.critic;
  const Vec& head =
      actor_cached ? t.cache.actor.post.back()
                   : actor_.forward(t.observation, ws.actor);

  double log_prob_new = 0.0;
  if (discrete()) {
    log_prob_new =
        Categorical::log_prob(head, static_cast<std::size_t>(t.action[0]));
  } else {
    log_prob_new = DiagGaussian::log_prob(head, log_std_, t.action);
  }
  const double ratio = std::exp(log_prob_new - t.log_prob);
  const double clipped_ratio =
      std::clamp(ratio, 1.0 - config_.clip_range, 1.0 + config_.clip_range);
  const double surr1 = ratio * t.advantage;
  const double surr2 = clipped_ratio * t.advantage;
  stats_terms[0] += -std::min(surr1, surr2) * inv_batch;

  // Policy gradient flows only where the unclipped surrogate is active.
  const double dloss_dlogp = (surr1 <= surr2) ? -t.advantage * ratio : 0.0;

  Vec head_grad(head.size(), 0.0);
  if (discrete()) {
    const auto a = static_cast<std::size_t>(t.action[0]);
    const Vec logp_grad = Categorical::log_prob_grad(head, a);
    const Vec ent_grad = Categorical::entropy_grad(head);
    stats_terms[2] += Categorical::entropy(head) * inv_batch;
    for (std::size_t i = 0; i < head.size(); ++i) {
      head_grad[i] = (dloss_dlogp * logp_grad[i] -
                      config_.ent_coef * ent_grad[i]) *
                     inv_batch;
    }
  } else {
    const Vec logp_grad_mean =
        DiagGaussian::log_prob_grad_mean(head, log_std_, t.action);
    const Vec logp_grad_ls =
        DiagGaussian::log_prob_grad_log_std(head, log_std_, t.action);
    stats_terms[2] += DiagGaussian::entropy(log_std_) * inv_batch;
    for (std::size_t i = 0; i < head.size(); ++i) {
      head_grad[i] = dloss_dlogp * logp_grad_mean[i] * inv_batch;
    }
    // dH/dlog_std = 1 per dimension.
    for (std::size_t i = 0; i < log_std_.size(); ++i) {
      log_std_grads[i] += (dloss_dlogp * logp_grad_ls[i] -
                           config_.ent_coef * 1.0) *
                          inv_batch;
    }
  }
  actor_.backward(head_grad, actor_ws, actor_grads);

  const double v = critic_cached
                       ? t.cache.critic.post.back()[0]
                       : critic_.forward(t.observation, ws.critic)[0];
  const double v_err = v - t.return_;
  stats_terms[1] += 0.5 * v_err * v_err * inv_batch;
  critic_.backward({config_.vf_coef * v_err * inv_batch}, critic_ws,
                   critic_grads);
}

PpoAgent::MinibatchStats PpoAgent::update_minibatch(
    const RolloutBuffer& buffer, const std::vector<std::size_t>& indices,
    std::size_t begin, std::size_t end) {
  actor_.zero_grad();
  critic_.zero_grad();
  for (auto& g : log_std_grad_) g = 0.0;

  MinibatchStats stats;
  const std::size_t m = end - begin;
  const double inv_batch = 1.0 / static_cast<double>(m);

  if (pool_ != nullptr && pool_->thread_count() > 1 && m > 1) {
    // Shadow-buffer path: each sample gets a private gradient slot, computed
    // against the shared read-only parameters, then slots are reduced here
    // in sample-index order. Every sample contributes exactly one term per
    // parameter (one rank-1 update per weight, one add per bias and per
    // log_std entry), so slot_k == the sequential path's k-th addend and the
    // ordered reduction reproduces its left-to-right accumulation exactly.
    const std::size_t ap = actor_.param_count();
    const std::size_t cp = critic_.param_count();
    const std::size_t ls = log_std_.size();
    const std::size_t stride = ap + cp + ls;
    shadow_grads_.resize(m * stride);
    shadow_stats_.resize(m * 3);
    if (sample_ws_.size() < m) sample_ws_.resize(m);
    pool_->parallel_for(m, [&](std::size_t k) {
      double* slot = shadow_grads_.data() + k * stride;
      std::fill(slot, slot + stride, 0.0);
      double* st = shadow_stats_.data() + k * 3;
      std::fill(st, st + 3, 0.0);
      accumulate_sample(buffer[indices[begin + k]], inv_batch,
                        {slot, ap}, {slot + ap, cp}, {slot + ap + cp, ls},
                        {st, 3}, sample_ws_[k]);
    });
    auto ag = actor_.grads();
    auto cg = critic_.grads();
    for (std::size_t k = 0; k < m; ++k) {
      const double* slot = shadow_grads_.data() + k * stride;
      for (std::size_t i = 0; i < ap; ++i) ag[i] += slot[i];
      for (std::size_t i = 0; i < cp; ++i) cg[i] += slot[ap + i];
      for (std::size_t i = 0; i < ls; ++i) {
        log_std_grad_[i] += slot[ap + cp + i];
      }
      const double* st = shadow_stats_.data() + k * 3;
      stats.policy_loss += st[0];
      stats.value_loss += st[1];
      stats.entropy += st[2];
    }
  } else {
    if (sample_ws_.empty()) sample_ws_.resize(1);
    for (std::size_t k = begin; k < end; ++k) {
      double terms[3] = {0.0, 0.0, 0.0};
      accumulate_sample(buffer[indices[k]], inv_batch, actor_.grads(),
                        critic_.grads(), log_std_grad_, terms, sample_ws_[0]);
      stats.policy_loss += terms[0];
      stats.value_loss += terms[1];
      stats.entropy += terms[2];
    }
  }

  // Global gradient-norm clip across actor, critic, and log_std.
  if (config_.max_grad_norm > 0.0) {
    const double sq = kernels::dot(actor_.grads(), actor_.grads()) +
                      kernels::dot(critic_.grads(), critic_.grads()) +
                      kernels::dot(log_std_grad_, log_std_grad_);
    const double norm = std::sqrt(sq);
    if (norm > config_.max_grad_norm && norm > 0.0) {
      const double scale = config_.max_grad_norm / norm;
      for (auto& g : actor_.grads()) g *= scale;
      for (auto& g : critic_.grads()) g *= scale;
      for (auto& g : log_std_grad_) g *= scale;
    }
  }

  actor_opt_.step(actor_.params(), actor_.grads());
  critic_opt_.step(critic_.params(), critic_.grads());
  if (!log_std_.empty()) {
    log_std_opt_.step(log_std_, log_std_grad_);
    // Keep exploration noise in a sane band; exp(-5) is effectively
    // deterministic, exp(1) spans the whole normalized action range.
    for (auto& ls : log_std_) ls = std::clamp(ls, -5.0, 1.0);
  }
  return stats;
}

}  // namespace netadv::rl
