// The environment interface every RL-trainable system in netadv implements:
// the Pensieve training environment, the ABR adversary environment, and the
// congestion-control adversary environment, plus the toy self-test envs.
//
// Conventions (gym-like):
//  * reset() returns the first observation of an episode.
//  * step() takes the *raw* policy action. For discrete spaces the action is
//    a one-element vector holding the index; for continuous spaces it is the
//    unclipped Gaussian sample — the env (via ActionSpec helpers) clips to
//    [-1, 1] and maps linearly into its physical ranges, mirroring the
//    paper's remark that "exploration and clipping done by PPO will return
//    the actions to the acceptable range".
#pragma once

#include <algorithm>
#include <cstddef>
#include <string>
#include <vector>

#include "rl/matrix.hpp"
#include "util/rng.hpp"

namespace netadv::rl {

enum class ActionType { kDiscrete, kContinuous };

/// Declares an environment's action space.
struct ActionSpec {
  ActionType type = ActionType::kDiscrete;
  /// Discrete: number of choices. Continuous: unused.
  std::size_t num_actions = 0;
  /// Continuous: physical bounds per dimension (sizes define dimensionality).
  Vec low;
  Vec high;

  static ActionSpec discrete(std::size_t n) {
    ActionSpec spec;
    spec.type = ActionType::kDiscrete;
    spec.num_actions = n;
    return spec;
  }

  static ActionSpec continuous(Vec low, Vec high) {
    ActionSpec spec;
    spec.type = ActionType::kContinuous;
    spec.low = std::move(low);
    spec.high = std::move(high);
    return spec;
  }

  std::size_t dims() const noexcept {
    return type == ActionType::kDiscrete ? 1 : low.size();
  }

  /// Map a raw policy output to physical units: clip to [-1, 1], then scale
  /// linearly into [low, high] per dimension.
  Vec to_physical(const Vec& raw) const {
    Vec out(low.size());
    for (std::size_t i = 0; i < low.size(); ++i) out[i] = to_physical(raw, i);
    return out;
  }

  /// Dimension `i` of to_physical(raw), without building the vector.
  double to_physical(const Vec& raw, std::size_t i) const {
    const double clipped = std::clamp(raw[i], -1.0, 1.0);
    return low[i] + (clipped + 1.0) * 0.5 * (high[i] - low[i]);
  }

  /// Inverse of to_physical for in-range values (used by tests/recorders).
  Vec to_normalized(const Vec& physical) const {
    Vec out(low.size());
    for (std::size_t i = 0; i < low.size(); ++i) {
      out[i] = 2.0 * (physical[i] - low[i]) / (high[i] - low[i]) - 1.0;
    }
    return out;
  }
};

struct StepResult {
  Vec observation;
  double reward = 0.0;
  bool done = false;
};

/// Abstract RL environment. Implementations own all domain state; the RNG is
/// passed in so a single experiment seed drives everything.
class Env {
 public:
  virtual ~Env() = default;

  virtual std::string name() const = 0;
  virtual std::size_t observation_size() const = 0;
  virtual ActionSpec action_spec() const = 0;

  /// Start a new episode and return its first observation.
  virtual Vec reset(util::Rng& rng) = 0;

  /// Advance one step. Must not be called after a step returned done=true
  /// until reset() is called again.
  virtual StepResult step(const Vec& action, util::Rng& rng) = 0;
};

}  // namespace netadv::rl
