#include "util/stats.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

namespace netadv::util {

void RunningStat::add(double x) noexcept {
  if (count_ == 0) {
    min_ = x;
    max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

double RunningStat::variance() const noexcept {
  return count_ < 2 ? 0.0 : m2_ / static_cast<double>(count_ - 1);
}

double RunningStat::stddev() const noexcept { return std::sqrt(variance()); }

double percentile(std::span<const double> xs, double p) {
  if (xs.empty()) throw std::invalid_argument{"percentile of empty sample"};
  if (p < 0.0 || p > 100.0) throw std::invalid_argument{"percentile p out of [0,100]"};
  std::vector<double> sorted{xs.begin(), xs.end()};
  std::sort(sorted.begin(), sorted.end());
  const double rank = p / 100.0 * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const auto hi = static_cast<std::size_t>(std::ceil(rank));
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

std::vector<CdfPoint> empirical_cdf(std::span<const double> xs) {
  if (xs.empty()) throw std::invalid_argument{"empirical_cdf of empty sample"};
  std::vector<double> sorted{xs.begin(), xs.end()};
  std::sort(sorted.begin(), sorted.end());
  std::vector<CdfPoint> cdf;
  cdf.reserve(sorted.size());
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    cdf.push_back({sorted[i],
                   static_cast<double>(i + 1) / static_cast<double>(sorted.size())});
  }
  return cdf;
}

double mean(std::span<const double> xs) {
  if (xs.empty()) return 0.0;
  return std::accumulate(xs.begin(), xs.end(), 0.0) /
         static_cast<double>(xs.size());
}

}  // namespace netadv::util
