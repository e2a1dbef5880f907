#include "core/abr_adversary.hpp"

#include <algorithm>
#include <cmath>
#include <span>
#include <stdexcept>

namespace netadv::core {

AbrAdversaryEnv::AbrAdversaryEnv(abr::VideoManifest manifest,
                                 abr::AbrProtocol& protocol, Params params)
    : manifest_(std::move(manifest)),
      protocol_(&protocol),
      params_(params),
      session_(manifest_),
      action_spec_(rl::ActionSpec::continuous({params_.bandwidth_min_mbps},
                                              {params_.bandwidth_max_mbps})) {
  if (params_.bandwidth_min_mbps <= 0.0 ||
      params_.bandwidth_max_mbps <= params_.bandwidth_min_mbps) {
    throw std::invalid_argument{"AbrAdversaryEnv: bad bandwidth range"};
  }
  if (params_.opt_window == 0 || params_.history == 0) {
    throw std::invalid_argument{"AbrAdversaryEnv: bad window parameters"};
  }
  history_.resize(params_.history * tuple_size());
}

std::size_t AbrAdversaryEnv::observation_size() const {
  return params_.obs_mode == ObsMode::kTimeOnly ? 1
                                                : params_.history * tuple_size();
}

rl::ActionSpec AbrAdversaryEnv::action_spec() const { return action_spec_; }

rl::Vec AbrAdversaryEnv::flatten_history() const {
  if (params_.obs_mode == ObsMode::kTimeOnly) {
    return {static_cast<double>(session_.next_chunk()) /
            static_cast<double>(manifest_.num_chunks())};
  }
  return history_;
}

void AbrAdversaryEnv::push_tuple() {
  std::copy_backward(history_.begin(),
                     history_.end() - static_cast<std::ptrdiff_t>(tuple_size()),
                     history_.end());
  const abr::AbrObservation& obs = session_.observation();
  const bool started = !obs.throughput_history_mbps.empty();
  double* out = history_.data();
  *out++ = obs.last_bitrate_mbps;
  *out++ = obs.buffer_s;
  for (const double bits : obs.next_chunk_sizes_bits) *out++ = bits / 1e6;
  *out++ = static_cast<double>(obs.remaining_chunks) /
           static_cast<double>(manifest_.num_chunks());
  *out++ = started ? obs.throughput_history_mbps.front() : 0.0;
  *out = started ? obs.download_time_history_s.front() : 0.0;
}

rl::Vec AbrAdversaryEnv::reset(util::Rng& /*rng*/) {
  session_.restart();
  protocol_->begin_video(manifest_);
  std::fill(history_.begin(), history_.end(), 0.0);
  window_.clear();
  episode_bandwidths_.clear();
  episode_qualities_.clear();
  episode_buffers_.clear();
  episode_rebuffers_.clear();
  last_reward_ = AdversaryReward{};
  episode_active_ = true;

  // Initial observation: what the protocol is about to see.
  push_tuple();
  return flatten_history();
}

rl::StepResult AbrAdversaryEnv::step(const rl::Vec& action,
                                     util::Rng& /*rng*/) {
  if (!episode_active_) throw std::logic_error{"AbrAdversaryEnv: step before reset"};
  const double bandwidth = action_spec_.to_physical(action, 0);

  // Record the protocol's pre-chunk state for the r_opt window.
  WindowEntry entry;
  entry.chunk = session_.next_chunk();
  entry.buffer_before_s = session_.buffer_s();
  entry.prev_bitrate_mbps = session_.observation().last_bitrate_mbps;

  // Let the target choose, then stream the chunk under our conditions.
  const std::size_t quality = protocol_->choose_quality(session_.observation());
  if (quality >= manifest_.num_qualities()) {
    throw std::logic_error{"AbrAdversaryEnv: protocol returned bad quality"};
  }
  const abr::DownloadResult result = session_.download_next(quality, bandwidth);

  entry.bandwidth_mbps = bandwidth;
  entry.quality = quality;
  window_.push_back(entry);
  while (window_.size() > params_.opt_window) window_.pop_front();

  episode_bandwidths_.push_back(bandwidth);
  episode_qualities_.push_back(quality);
  episode_buffers_.push_back(result.buffer_after_s);
  episode_rebuffers_.push_back(result.rebuffer_s);

  // Equation 1 over the trailing window of network changes. The optimal and
  // protocol terms depend on the configured goal (Section 5's "different
  // adversarial goals"); kQoeRegret is the paper's headline objective.
  const WindowEntry& start = window_.front();
  window_bandwidths_.resize(window_.size());
  window_qualities_.resize(window_.size());
  for (std::size_t k = 0; k < window_.size(); ++k) {
    window_bandwidths_[k] = window_[k].bandwidth_mbps;
    window_qualities_[k] = window_[k].quality;
  }
  const std::span<const double> bandwidths{window_bandwidths_};
  const std::span<const std::size_t> qualities{window_qualities_};
  switch (params_.goal) {
    case Goal::kQoeRegret:
      last_reward_.optimal = abr::optimal_window_qoe(
          manifest_, start.chunk, start.buffer_before_s,
          start.prev_bitrate_mbps, bandwidths, params_.qoe);
      last_reward_.protocol = abr::window_qoe(
          manifest_, start.chunk, start.buffer_before_s,
          start.prev_bitrate_mbps, qualities, bandwidths, params_.qoe);
      break;
    case Goal::kRebuffering: {
      // "an ABR adversary could be created with the specific goal of
      // causing rebuffering": optimal stall is what perfect foresight would
      // have suffered (usually 0); protocol term is the negated stall it
      // actually caused, so stall beyond the unavoidable pays the adversary.
      double window_rebuffer = 0.0;
      const std::size_t n = std::min(params_.opt_window, episode_rebuffers_.size());
      for (std::size_t k = episode_rebuffers_.size() - n;
           k < episode_rebuffers_.size(); ++k) {
        window_rebuffer += episode_rebuffers_[k];
      }
      last_reward_.optimal = 0.0;
      last_reward_.protocol = -window_rebuffer;
      break;
    }
  }
  const double prev_bw = episode_bandwidths_.size() >= 2
                             ? episode_bandwidths_[episode_bandwidths_.size() - 2]
                             : bandwidth;
  last_reward_.smoothing =
      params_.smoothing_weight * std::abs(bandwidth - prev_bw);

  // Normalize the window terms by the window length so rewards stay on a
  // per-chunk scale.
  const auto n = static_cast<double>(window_.size());
  last_reward_.optimal /= n;
  last_reward_.protocol /= n;

  rl::StepResult step_result;
  step_result.reward = last_reward_.value();
  step_result.done = session_.finished();
  episode_active_ = !step_result.done;

  // Update the adversary's view with what it just observed.
  push_tuple();

  step_result.observation = flatten_history();
  return step_result;
}

}  // namespace netadv::core
