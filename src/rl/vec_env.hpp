// Vectorized environment execution: N independent replicas of an Env stepped
// as one batch, the parallel experience-collection substrate PPO training
// and the figure benches run on.
//
// Determinism contract: every replica owns a private RNG stream forked from
// the VecEnv seed in index order at construction, and batch results are
// always reduced in replica-index order. Because no stream is ever shared
// across replicas, stepping the batch on 1 thread or 16 produces bit-equal
// trajectories — thread count is purely a wall-clock knob.
//
// Replicas auto-reset: when a step ends an episode, the returned observation
// is already the first observation of the replica's next episode (the usual
// gym VecEnv convention), with the done flag marking the boundary.
//
// Because batch results arrive in replica-index order, the PPO rollout can
// forward the whole observation batch at once (Mlp::forward_batch, the gemm
// kernel) and stamp each replica's activation record into its transition's
// rollout cache: gemm computes every output element in the same canonical
// order as per-sample gemv (kernels.hpp), so the cached activations — later
// reused by the minibatch gradient step — are bit-identical to what N
// separate forwards would have produced.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "rl/env.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace netadv::rl {

class VecEnv {
 public:
  /// Builds replica `index`. The factory owns the decision of what a replica
  /// is (fresh target protocol, fresh simulator, ...) and must hand over
  /// full ownership — replicas may be stepped concurrently, so they cannot
  /// share mutable state.
  using Factory = std::function<std::unique_ptr<Env>(std::size_t index)>;

  struct StepBatch {
    std::vector<Vec> observations;       // next obs (post-auto-reset if done)
    std::vector<double> rewards;
    std::vector<std::uint8_t> dones;     // 1 when the step ended an episode
  };

  /// `pool` of nullptr steps replicas sequentially on the caller.
  VecEnv(const Factory& factory, std::size_t n, std::uint64_t seed,
         util::ThreadPool* pool = nullptr);

  std::size_t size() const noexcept { return envs_.size(); }
  std::string name() const { return envs_.front()->name(); }
  std::size_t observation_size() const {
    return envs_.front()->observation_size();
  }
  ActionSpec action_spec() const { return envs_.front()->action_spec(); }

  /// Reset every replica (each on its own stream); observations in replica
  /// order.
  const std::vector<Vec>& reset_all();

  /// Step replica i with actions[i] for all i, in parallel across the pool.
  const StepBatch& step(const std::vector<Vec>& actions);

  Env& env(std::size_t i) { return *envs_.at(i); }
  /// Pool the replicas are stepped on (nullptr = sequential). PPO training
  /// fans its minibatch gradient step out over it too.
  util::ThreadPool* pool() const noexcept { return pool_; }
  /// Replica i's private stream — also the right stream for sampling the
  /// action fed to replica i, keeping the whole (sample, step) pair on one
  /// per-replica sequence.
  util::Rng& rng(std::size_t i) { return rngs_.at(i); }

 private:
  std::vector<std::unique_ptr<Env>> envs_;
  std::vector<util::Rng> rngs_;
  util::ThreadPool* pool_;
  std::vector<Vec> reset_obs_;
  StepBatch batch_;
};

}  // namespace netadv::rl
