// Time-windowed max/min filter (the estimator structure from the BBR paper /
// Linux kern implementation): tracks the extreme of samples seen within a
// sliding time window, expiring stale extremes as time advances.
#pragma once

#include <deque>

namespace netadv::cc {

/// kMax keeps the largest sample in the window, kMin the smallest.
enum class FilterKind { kMax, kMin };

class WindowedFilter {
 public:
  WindowedFilter(FilterKind kind, double window_length_s)
      : kind_(kind), window_s_(window_length_s) {}

  void update(double value, double now_s) {
    // Drop samples outside the window.
    expire(now_s);
    // Drop samples dominated by the new one (monotone deque).
    while (!samples_.empty() && dominates(value, samples_.back().value)) {
      samples_.pop_back();
    }
    samples_.push_back({value, now_s});
  }

  bool empty() const noexcept { return samples_.empty(); }

  /// Current extreme (0 if no sample yet).
  double get(double now_s) {
    expire(now_s);
    return samples_.empty() ? 0.0 : samples_.front().value;
  }

  void reset() { samples_.clear(); }

  /// Retune the window length, keeping recorded samples (they expire against
  /// the new length on the next update/get).
  void set_window_length(double window_s) { window_s_ = window_s; }

 private:
  struct Sample {
    double value;
    double time;
  };

  bool dominates(double a, double b) const noexcept {
    return kind_ == FilterKind::kMax ? a >= b : a <= b;
  }

  void expire(double now_s) {
    while (!samples_.empty() && now_s - samples_.front().time > window_s_) {
      samples_.pop_front();
    }
  }

  FilterKind kind_;
  double window_s_;
  std::deque<Sample> samples_;
};

}  // namespace netadv::cc
