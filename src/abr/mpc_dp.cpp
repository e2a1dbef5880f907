#include "abr/mpc_dp.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace netadv::abr {

MpcDp::MpcDp(Params params, std::unique_ptr<QoeModel> qoe)
    : params_(params),
      qoe_(std::move(qoe)),
      predictor_(params.throughput_window) {
  if (params_.horizon == 0 || params_.buffer_levels < 2 ||
      params_.throughput_window == 0 || params_.max_buffer_s <= 0.0 ||
      qoe_ == nullptr) {
    throw std::invalid_argument{"MpcDp: bad parameters"};
  }
}

void MpcDp::begin_video(const VideoManifest& manifest) {
  manifest_ = &manifest;
  qoe_->begin_video(manifest);
  predictor_.reset(manifest.bitrate_mbps(0));
  const std::size_t num_q = manifest.num_qualities();
  const std::size_t levels = params_.buffer_levels;
  const std::size_t depths = std::min(params_.horizon, manifest.num_chunks());
  value_.resize(levels * num_q);
  next_value_.resize(levels * num_q);
  dt_.resize(depths * num_q);
  score_.resize(depths * num_q);
  base_.resize(num_q);
  smooth_.resize(num_q * num_q);
  reach_.reserve(depths * levels);
  reach_begin_.resize(depths + 1);
  mark_.resize(levels);
}

std::size_t MpcDp::choose_quality(const AbrObservation& observation) {
  if (manifest_ == nullptr) {
    throw std::logic_error{"MpcDp: begin_video not called"};
  }
  const std::size_t first = observation.chunk_index;
  if (first >= manifest_->num_chunks()) {
    throw std::out_of_range{"MpcDp: chunk index past the end of the video"};
  }
  const double predicted = predictor_.predict(observation);

  const std::size_t num_q = manifest_->num_qualities();
  const std::size_t levels = params_.buffer_levels;
  const std::size_t depth_limit =
      std::min(params_.horizon, manifest_->num_chunks() - first);
  const double rebuf_pen = qoe_->rebuffer_penalty();
  const double smooth_pen = qoe_->smoothness_penalty();
  const double chunk_dur = manifest_->chunk_duration_s();
  const double max_buffer = params_.max_buffer_s;
  const double grid = static_cast<double>(levels - 1);
  // Grid level nearest a buffer in [0, max_buffer_s]: std::lround(buffer /
  // step) without the libm call (`whole` is the floor and x - whole is
  // exact, so halves round up as lround does).
  const double step = max_buffer / grid;
  const auto level_of = [step](double buffer_s) {
    const double x = buffer_s / step;
    const auto whole = static_cast<std::size_t>(x);
    return whole + (x - static_cast<double>(whole) >= 0.5 ? 1 : 0);
  };
  // Both passes take a level's buffer and a download's successor level from
  // these two, so the forward pass lists exactly the rows the backward pass
  // reads.
  const auto level_buffer = [&](std::size_t level) {
    return static_cast<double>(level) * max_buffer / grid;
  };
  const auto successor = [&](double buffer_s, double dt) {
    return level_of(
        std::min(std::max(0.0, buffer_s - dt) + chunk_dur, max_buffer));
  };

  for (std::size_t d = 0; d < depth_limit; ++d) {
    for (std::size_t q = 0; q < num_q; ++q) {
      dt_[d * num_q + q] =
          manifest_->chunk_size_bits(first + d, q) / (predicted * 1e6);
      score_[d * num_q + q] = qoe_->quality_score(first + d, q);
    }
  }

  // Forward pass: the levels depth d = 1..depth_limit-1 can start from are
  // the successors of depth d-1's, under depth d-1's download times.
  const auto list_successors = [&](double buffer_s, const double* dt) {
    for (std::size_t q = 0; q < num_q; ++q) {
      const std::size_t level = successor(buffer_s, dt[q]);
      if (mark_[level] != stamp_) {
        mark_[level] = stamp_;
        reach_.push_back(level);
      }
    }
  };
  reach_.clear();
  reach_begin_[1] = 0;
  for (std::size_t d = 1; d < depth_limit; ++d) {
    ++stamp_;
    const double* dt = &dt_[(d - 1) * num_q];
    if (d == 1) {
      list_successors(observation.buffer_s, dt);
    } else {
      for (std::size_t i = reach_begin_[d - 1]; i < reach_begin_[d]; ++i) {
        list_successors(level_buffer(reach_[i]), dt);
      }
    }
    reach_begin_[d + 1] = reach_.size();
  }
  stats_.rows += (depth_limit - 1) * levels;
  stats_.evaluated += reach_.size();

  // Backward pass over the listed rows. next_value_[level * Q + prev]
  // holds the optimal score-to-horizon from depth d+1; zero beyond the
  // horizon.
  next_value_.assign(levels * num_q, 0.0);
  for (std::size_t d = depth_limit; d-- > 1;) {
    const double* dt = &dt_[d * num_q];
    const double* score = &score_[d * num_q];
    const double* prev_score = &score_[(d - 1) * num_q];
    for (std::size_t p = 0; p < num_q; ++p) {
      for (std::size_t q = 0; q < num_q; ++q) {
        smooth_[p * num_q + q] =
            smooth_pen * std::abs(score[q] - prev_score[p]);
      }
    }
    for (std::size_t i = reach_begin_[d]; i < reach_begin_[d + 1]; ++i) {
      const std::size_t level = reach_[i];
      const double buffer = level_buffer(level);
      for (std::size_t q = 0; q < num_q; ++q) {
        const double rebuffer = std::max(0.0, dt[q] - buffer);
        base_[q] = score[q] - rebuf_pen * rebuffer +
                   next_value_[successor(buffer, dt[q]) * num_q + q];
      }
      for (std::size_t p = 0; p < num_q; ++p) {
        const double* smooth = &smooth_[p * num_q];
        double best = -1e18;
        for (std::size_t q = 0; q < num_q; ++q) {
          best = std::max(best, base_[q] - smooth[q]);
        }
        value_[level * num_q + p] = best;
      }
    }
    std::swap(value_, next_value_);
  }

  // Depth 0 uses the *continuous* buffer and the real previous chunk.
  const bool first_chunk = first == 0;
  const double prev_score =
      first_chunk ? 0.0
                  : qoe_->quality_score(first - 1, observation.last_quality);
  std::size_t best_quality = 0;
  double best = -1e18;
  for (std::size_t q = 0; q < num_q; ++q) {
    const double rebuffer = std::max(0.0, dt_[q] - observation.buffer_s);
    const double smooth =
        first_chunk ? 0.0 : smooth_pen * std::abs(score_[q] - prev_score);
    const std::size_t next = successor(observation.buffer_s, dt_[q]);
    const double v = score_[q] - rebuf_pen * rebuffer - smooth +
                     next_value_[next * num_q + q];
    if (v > best) {
      best = v;
      best_quality = q;
    }
  }
  return best_quality;
}

}  // namespace netadv::abr
