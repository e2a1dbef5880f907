// Fixed-horizon rollout storage with Generalized Advantage Estimation
// (Schulman et al., 2016). The PPO trainer fills one buffer per iteration,
// calls compute_advantages() with the bootstrap value, then consumes
// shuffled minibatches for several epochs.
//
// Determinism contract: everything here runs on the calling thread. The GAE
// pass is a sequential backward scan, and shuffled_indices() derives its
// permutation only from the caller's Rng state — so the minibatch sample
// order (the order every gradient element sums in, see rl/ppo.hpp) is a pure
// function of the seed, never of the thread count.
#pragma once

#include <cstddef>
#include <vector>

#include "rl/matrix.hpp"
#include "util/rng.hpp"

namespace netadv::rl {

struct Transition {
  Vec observation;   // normalized observation fed to the nets
  Vec action;        // raw policy action (index for discrete)
  double log_prob = 0.0;
  double value = 0.0;
  double reward = 0.0;
  bool done = false;      // episode terminated at this step
  double advantage = 0.0; // filled by compute_advantages
  double return_ = 0.0;   // advantage + value (TD(lambda) return target)
};

class RolloutBuffer {
 public:
  explicit RolloutBuffer(std::size_t capacity);

  void add(Transition t);
  bool full() const noexcept { return data_.size() == capacity_; }
  std::size_t size() const noexcept { return data_.size(); }
  void clear() noexcept { data_.clear(); }

  const Transition& operator[](std::size_t i) const { return data_.at(i); }

  /// Backward GAE pass. `last_value` is V(s_{T}) used to bootstrap the final
  /// (non-terminal) transition. Advantages are then standardized across the
  /// buffer (mean 0, std 1), the usual PPO normalization.
  void compute_advantages(double last_value, double gamma, double lambda);

  /// A random permutation of [0, size()) for minibatching. Fisher–Yates on
  /// the caller's rng: the permutation depends only on the rng state, so
  /// every epoch's minibatch composition is reproducible from the seed.
  std::vector<std::size_t> shuffled_indices(util::Rng& rng) const;

 private:
  std::size_t capacity_;
  std::vector<Transition> data_;
};

}  // namespace netadv::rl
