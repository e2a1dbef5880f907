// Small statistics toolkit used across the simulators, the RL substrate and
// the benchmark harnesses: streaming moments (Welford), percentiles and
// empirical CDFs.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace netadv::util {

/// Streaming mean/variance via Welford's algorithm; O(1) memory.
class RunningStat {
 public:
  void add(double x) noexcept;
  void reset() noexcept { *this = RunningStat{}; }

  std::size_t count() const noexcept { return count_; }
  bool empty() const noexcept { return count_ == 0; }
  double mean() const noexcept { return mean_; }
  /// Sample variance (n-1 denominator); 0 for fewer than two samples.
  double variance() const noexcept;
  double stddev() const noexcept;
  double min() const noexcept { return min_; }
  double max() const noexcept { return max_; }
  double sum() const noexcept { return sum_; }

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  double sum_ = 0.0;
};

/// Percentile of a sample set with linear interpolation between order
/// statistics. `p` in [0, 100]. Throws on empty input.
double percentile(std::span<const double> xs, double p);

struct CdfPoint {
  double value;
  double cumulative_probability;
};

/// Empirical CDF (sorted sample values with cumulative probabilities),
/// suitable for plotting Figure-1-style curves. Throws on empty input.
std::vector<CdfPoint> empirical_cdf(std::span<const double> xs);

double mean(std::span<const double> xs);

}  // namespace netadv::util
