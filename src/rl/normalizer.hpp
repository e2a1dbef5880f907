// Running observation/return normalization (the VecNormalize trick from
// stable-baselines): PPO on raw physical units (Mbps, seconds, chunk bytes)
// conditions poorly, so observations are whitened by running mean/variance
// and rewards scaled by the running std of the discounted return.
#pragma once

#include <cstddef>
#include <vector>

#include "rl/matrix.hpp"

namespace netadv::rl {

/// Per-dimension running mean/variance (parallel Welford) with whitening.
class RunningNormalizer {
 public:
  explicit RunningNormalizer(std::size_t dims, double clip = 10.0);

  /// Fold one observation into the statistics.
  void update(const Vec& x);

  /// Whiten: (x - mean) / sqrt(var + eps), clipped to [-clip, clip]. The
  /// divisor is cached per dimension whenever the moments change.
  Vec normalize(const Vec& x) const;

  std::size_t dims() const noexcept { return mean_.size(); }
  std::size_t count() const noexcept { return count_; }
  const Vec& mean() const noexcept { return mean_; }
  Vec variance() const;
  /// Raw Welford second moment (sum of squared deviations). Checkpoints
  /// store this instead of variance() so restore_moments() is an exact
  /// bit-level round trip — variance() multiplies by 1/(n-1), which does
  /// not invert exactly in floating point.
  const Vec& m2() const noexcept { return m2_; }

  /// Restore from checkpointed mean/variance (legacy v1 checkpoints).
  /// Inverts variance() up to rounding; with count < 2 the internal second
  /// moment is restored to its only possible value, 0.
  void restore(Vec mean, Vec variance, std::size_t count);

  /// Restore from checkpointed mean/m2; exact inverse of mean() + m2() +
  /// count(), bit for bit.
  void restore_moments(Vec mean, Vec m2, std::size_t count);

 private:
  /// Recomputes std_ from m2_ and count_.
  void refresh_std();

  Vec mean_;
  Vec m2_;
  Vec std_;  // sqrt(var + eps) per dimension, as normalize() divides by it
  std::size_t count_ = 0;
  double clip_;
};

/// Scales rewards by the running std of the discounted return; keeps
/// training-signal magnitude stable across domains.
class ReturnNormalizer {
 public:
  explicit ReturnNormalizer(double gamma, double clip = 10.0);

  /// Feed the raw reward (and whether the episode ended); returns the
  /// scaled reward used for the update.
  double normalize(double reward, bool done);

  std::size_t count() const noexcept { return count_; }

 private:
  double gamma_;
  double clip_;
  double running_return_ = 0.0;
  // Welford over running returns.
  double mean_ = 0.0;
  double m2_ = 0.0;
  std::size_t count_ = 0;
};

}  // namespace netadv::rl
