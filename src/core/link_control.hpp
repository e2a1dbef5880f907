// The Table-1 link adversary's control loop, composed by CcAdversaryEnv (the
// Section-4 single flow) and FairnessAdversaryEnv (a Section-5 flow mix):
// every epoch the adversary sets the link's (bandwidth, latency, loss rate)
// within Table 1's ranges and is charged 0.01 * S, S being the distance of
// the new bandwidth/latency from EWMAs of both. The envs keep what differs:
// the senders on the link, the observation and the pay term.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "cc/link.hpp"
#include "cc/multiflow.hpp"
#include "cc/sender.hpp"
#include "rl/env.hpp"

namespace netadv::core {

/// Parameter checks naming the owner, the field and its value: unless `ok`,
/// ParamCheck{"CcAdversaryEnv"}(ok, "episode_duration_s", 0.01, "<", "epoch_s",
/// 0.03) throws "CcAdversaryEnv: episode_duration_s 0.01 < epoch_s 0.03".
struct ParamCheck {
  const char* who;
  void operator()(bool ok, const char* field, double value, const char* rule,
                  const char* other = nullptr, double other_value = 0.0) const;
};

class LinkControl {
 public:
  /// The link knobs and episode shape: the base of each link env's Params.
  struct Params {
    // Table 1 action ranges.
    double bandwidth_min_mbps = 6.0;
    double bandwidth_max_mbps = 24.0;
    double latency_min_ms = 15.0;
    double latency_max_ms = 60.0;
    double loss_min = 0.0;
    double loss_max = 0.10;

    double epoch_s = 0.030;            ///< adversary action granularity
    double episode_duration_s = 30.0;  ///< Figure 5's trace length
    double smoothing_coefficient = 0.01;
    double ewma_alpha = 0.1;           ///< EWMA used inside S
    /// Queue-delay observation scale (seconds -> O(1) feature).
    double queue_delay_scale_s = 0.25;
    cc::LinkSim::Params link{};
  };

  /// Validates `params`; errors are prefixed with `who` (the env's name).
  LinkControl(const Params& params, const char* who);

  /// Continuous (bandwidth, latency, loss) within the Table-1 ranges.
  rl::ActionSpec action_spec() const;
  std::size_t epochs_per_episode() const noexcept {
    return static_cast<std::size_t>(params_.episode_duration_s /
                                    params_.epoch_s + 0.5);
  }

  /// A fresh runner over the borrowed `senders` (flow i starting at
  /// `start_times_s[i]`, all at 0 when empty) on a mid-range link, with one
  /// epoch elapsed so the first observation is informative.
  void reset(std::vector<cc::CcSender*> senders, std::uint64_t seed,
             std::vector<double> start_times_s = {});

  /// Apply `action` for one epoch and return the physical (bandwidth,
  /// latency, loss) it mapped to; updates last_interval() and the S term.
  rl::Vec step(const rl::Vec& action);

  const cc::MultiFlowRunner::Interval& last_interval() const noexcept {
    return last_interval_;
  }
  /// smoothing_coefficient * S for the latest step.
  double smoothing_penalty() const noexcept {
    return params_.smoothing_coefficient * smoothing_raw_;
  }
  double now_s() const noexcept { return runner_->now_s(); }
  std::size_t epoch_index() const noexcept { return epoch_index_; }
  bool done() const noexcept { return epoch_index_ >= epochs_per_episode(); }

 private:
  Params params_;
  const char* who_;

  std::unique_ptr<cc::MultiFlowRunner> runner_;
  std::size_t epoch_index_ = 0;
  cc::MultiFlowRunner::Interval last_interval_{};

  // Smoothing-factor EWMAs over *normalized* bandwidth/latency so S is
  // dimensionless and the 0.01 coefficient is meaningful.
  double ewma_bw_norm_ = 0.0;
  double ewma_lat_norm_ = 0.0;
  bool ewma_initialized_ = false;
  double smoothing_raw_ = 0.0;
};

}  // namespace netadv::core
