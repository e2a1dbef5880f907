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

/// Samples per forward-and-backprop task of the minibatch step: enough rows
/// that a block's gemm and gemm_transposed per layer amortize, few enough
/// that a minibatch of 64 spreads over several threads. Any block size gives
/// the same results.
constexpr std::size_t kSampleBlock = 8;

/// Delta rows per weight-gradient task of the minibatch step: enough that a
/// block's rank_k_update per layer slice amortizes, few enough that a
/// 64-wide layer spreads over several threads. Any block size gives the same
/// gradients.
constexpr std::size_t kRowBlock = 16;

/// `net`'s output for one input, forwarded on `row`, a one-row arena laid
/// out for `net`; valid until the arena's next use.
std::span<const double> forward_one(const Mlp& net, Mlp::Arena& row,
                                    std::span<const double> input) {
  row.set_input(0, input);
  net.forward_rows(row, 0, 1);
  return row.output(0);
}

}  // namespace

/// run_update_epochs owns one set for all its minibatches, so the buffers
/// are allocated once per update and freed with it.
struct PpoAgent::MinibatchBuffers {
  struct Net {
    Mlp::Arena arena;            // the minibatch's activations, by sample
    std::vector<double> deltas;  // each sample's delta record
  };
  Net actor;
  Net critic;
  std::vector<double> terms;  // each sample's loss_head_sample terms
  GaussianHead gaussian;      // the minibatch's log_std constants
};

PpoAgent::PpoAgent(std::size_t observation_size, ActionSpec action_spec,
                   PpoConfig config, std::uint64_t seed)
    : obs_size_(observation_size),
      action_spec_(std::move(action_spec)),
      config_(std::move(config)),
      rng_(seed),
      actor_(make_actor_sizes(observation_size, config_, action_spec_),
             /*final_gain=*/0.01, rng_),
      critic_(make_critic_sizes(observation_size, config_),
              /*final_gain=*/1.0, rng_),
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
  actor_row_.reset(actor_, 1);
  critic_row_.reset(critic_, 1);
}

Vec PpoAgent::act_stochastic(const Vec& observation, util::Rng& rng) {
  const auto head = forward_one(actor_, actor_row_,
                                obs_normalizer_.normalize(observation));
  if (discrete()) {
    return {static_cast<double>(Categorical::sample(head, rng))};
  }
  return DiagGaussian::sample(head, log_std_, rng);
}

Vec PpoAgent::act_deterministic(const Vec& observation) {
  const auto head = forward_one(actor_, actor_row_,
                                obs_normalizer_.normalize(observation));
  if (discrete()) {
    return {static_cast<double>(Categorical::mode(head))};
  }
  return {head.begin(), head.end()};
}

std::vector<Vec> PpoAgent::act_deterministic_batch(
    const std::vector<Vec>& observations) {
  const std::size_t n = observations.size();
  actor_rows_.reset(actor_, n);
  for (std::size_t i = 0; i < n; ++i) {
    actor_rows_.set_input(i, obs_normalizer_.normalize(observations[i]));
  }
  actor_.forward_rows(actor_rows_, 0, n);
  std::vector<Vec> actions(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto head = actor_rows_.output(i);
    if (discrete()) {
      actions[i] = {static_cast<double>(Categorical::mode(head))};
    } else {
      actions[i].assign(head.begin(), head.end());
    }
  }
  return actions;
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
  while (steps_done < total_steps) {
    buffer.clear();
    std::size_t episodes_this_update = 0;
    double episode_reward_sum_this_update = 0.0;

    while (!buffer.full()) {
      obs_normalizer_.update(raw_obs);
      const Vec obs = obs_normalizer_.normalize(raw_obs);

      Transition t;
      t.observation = obs;
      const auto head = forward_one(actor_, actor_row_, obs);
      t.value = forward_one(critic_, critic_row_, obs)[0];
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
      t.reward = return_normalizer_.normalize(result.reward, result.done);
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

    const double last_value = forward_one(
        critic_, critic_row_, obs_normalizer_.normalize(raw_obs))[0];
    buffer.compute_advantages(last_value, config_.gamma, config_.gae_lambda);

    const MinibatchStats stats = run_update_epochs(buffer, pool_);
    ++report.updates;
    report.final_policy_loss = stats.policy_loss;
    report.final_value_loss = stats.value_loss;
    report.final_entropy = stats.entropy;
    if (callback) {
      UpdateInfo info;
      info.update_index = report.updates;
      info.total_steps_done = steps_done;
      info.mean_episode_reward =
          episodes_this_update > 0
              ? episode_reward_sum_this_update /
                    static_cast<double>(episodes_this_update)
              : 0.0;
      info.policy_loss = stats.policy_loss;
      info.value_loss = stats.value_loss;
      info.entropy = stats.entropy;
      callback(info);
    }
  }

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
  return report;
}

PpoAgent::MinibatchStats PpoAgent::run_update_epochs(
    const RolloutBuffer& buffer, util::ThreadPool* pool) {
  MinibatchStats last_stats;
  MinibatchBuffers buf;
  for (std::size_t epoch = 0; epoch < config_.epochs; ++epoch) {
    const auto indices = buffer.shuffled_indices(rng_);
    for (std::size_t begin = 0; begin < indices.size();
         begin += config_.minibatch_size) {
      const std::size_t end =
          std::min(begin + config_.minibatch_size, indices.size());
      last_stats = update_minibatch(buffer, indices, begin, end, pool, buf);
    }
  }
  return last_stats;
}

void PpoAgent::loss_head_sample(const Transition& t, std::size_t k,
                                double inv_batch,
                                MinibatchBuffers& buf) const {
  const std::size_t ad = actor_.delta_size();
  const std::size_t cd = critic_.delta_size();
  const std::size_t tw = 3 + log_std_.size();
  const std::span<double> actor_deltas{buf.actor.deltas.data() + k * ad, ad};
  const std::span<double> critic_deltas{buf.critic.deltas.data() + k * cd, cd};
  const std::span<double> terms{buf.terms.data() + k * tw, tw};
  // The head gradient is built in place in the tail of the actor's delta
  // record, where backward_rows() expects it. The log-prob pass leaves its
  // intermediates there (and, for the Gaussian, in the log_std slots of
  // `terms`); the gradient pass turns them into the gradients.
  const std::span<double> head_grad = actor_deltas.last(actor_.output_size());
  const std::span<double> log_std_grad = terms.subspan(3);
  const std::span<const double> head = buf.actor.arena.output(k);
  const std::size_t action =
      discrete() ? static_cast<std::size_t>(t.action[0]) : 0;
  double entropy = 0.0;
  double log_prob_new = 0.0;
  if (discrete()) {
    log_prob_new = Categorical::head_log_prob(head, action, head_grad, entropy);
  } else {
    log_prob_new =
        buf.gaussian.log_prob(head, t.action, head_grad, log_std_grad);
    entropy = buf.gaussian.entropy();
  }
  const double ratio = std::exp(log_prob_new - t.log_prob);
  const double clipped_ratio =
      std::clamp(ratio, 1.0 - config_.clip_range, 1.0 + config_.clip_range);
  const double surr1 = ratio * t.advantage;
  const double surr2 = clipped_ratio * t.advantage;
  terms[0] = -std::min(surr1, surr2) * inv_batch;
  terms[2] = entropy * inv_batch;

  // Policy gradient flows only where the unclipped surrogate is active.
  const double dloss_dlogp = (surr1 <= surr2) ? -t.advantage * ratio : 0.0;
  if (discrete()) {
    Categorical::head_grad(head_grad, action, entropy, dloss_dlogp,
                           config_.ent_coef, inv_batch);
  } else {
    buf.gaussian.head_grad(head_grad, log_std_grad, dloss_dlogp,
                           config_.ent_coef, inv_batch);
  }

  const double v_err = buf.critic.arena.output(k)[0] - t.return_;
  terms[1] = 0.5 * v_err * v_err * inv_batch;
  critic_deltas.back() = config_.vf_coef * v_err * inv_batch;
}

PpoAgent::MinibatchStats PpoAgent::update_minibatch(
    const RolloutBuffer& buffer, const std::vector<std::size_t>& indices,
    std::size_t begin, std::size_t end, util::ThreadPool* pool,
    MinibatchBuffers& buf) {
  const std::size_t m = end - begin;
  const double inv_batch = 1.0 / static_cast<double>(m);
  const std::size_t tw = 3 + log_std_.size();
  using Net = MinibatchBuffers::Net;
  for (auto [nb, net] : {std::pair{&buf.actor, &actor_},
                         std::pair{&buf.critic, &critic_}}) {
    nb->arena.reset(*net, m);
    nb->deltas.resize(m * net->delta_size());
  }
  buf.terms.resize(m * tw);
  if (!discrete()) buf.gaussian.set_log_std(log_std_);

  // (a) Per block of kSampleBlock samples, in parallel: gather the
  // observations into the block's arena rows, run the actor and critic
  // forward over them (one gemm per layer), then each sample's loss head
  // into its own slots, then each network's backward over the block (one
  // gemm_transposed per layer) into the block's delta records.
  const std::size_t sample_blocks = (m + kSampleBlock - 1) / kSampleBlock;
  util::parallel_for(pool, sample_blocks, [&](std::size_t b) {
    const std::size_t lo = b * kSampleBlock;
    const std::size_t hi = std::min(m, lo + kSampleBlock);
    for (std::size_t k = lo; k < hi; ++k) {
      const Vec& observation = buffer[indices[begin + k]].observation;
      buf.actor.arena.set_input(k, observation);
      buf.critic.arena.set_input(k, observation);
    }
    actor_.forward_rows(buf.actor.arena, lo, hi);
    critic_.forward_rows(buf.critic.arena, lo, hi);
    for (std::size_t k = lo; k < hi; ++k) {
      loss_head_sample(buffer[indices[begin + k]], k, inv_batch, buf);
    }
    actor_.backward_rows(buf.actor.arena, lo, hi, buf.actor.deltas);
    critic_.backward_rows(buf.critic.arena, lo, hi, buf.critic.deltas);
  });

  // (b) The loss statistics and the log_std gradient, summed here in sample
  // order.
  MinibatchStats stats;
  for (auto& g : log_std_grad_) g = 0.0;
  for (std::size_t k = 0; k < m; ++k) {
    const double* t = buf.terms.data() + k * tw;
    stats.policy_loss += t[0];
    stats.value_loss += t[1];
    stats.entropy += t[2];
    for (std::size_t i = 3; i < tw; ++i) log_std_grad_[i - 3] += t[i];
  }

  // (c) Weight gradients: one task per block of kRowBlock delta rows of
  // either network. A block adds its rows' per-sample terms in ascending
  // sample order, so every element gets the same adds in the same order
  // however the blocks are scheduled.
  actor_.zero_grad();
  critic_.zero_grad();
  const auto blocks = [](const Mlp& net) {
    return (net.delta_size() + kRowBlock - 1) / kRowBlock;
  };
  const auto accumulate = [](Mlp& net, const Net& nb, std::size_t b) {
    net.accumulate_rows(b * kRowBlock,
                        std::min((b + 1) * kRowBlock, net.delta_size()),
                        nb.deltas, nb.arena, net.grads());
  };
  const std::size_t actor_blocks = blocks(actor_);
  util::parallel_for(pool, actor_blocks + blocks(critic_), [&](std::size_t b) {
    if (b < actor_blocks) accumulate(actor_, buf.actor, b);
    else accumulate(critic_, buf.critic, b - actor_blocks);
  });

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
    for (auto& v : log_std_) v = std::clamp(v, -5.0, 1.0);
  }
  return stats;
}

}  // namespace netadv::rl
