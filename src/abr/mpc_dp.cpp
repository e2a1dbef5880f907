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
  value_.resize(params_.buffer_levels * num_q);
  dt_.resize(num_q);
  score_.resize(num_q);
  base_.resize(num_q);
  smooth_.resize(num_q * num_q);
}

void MpcDp::tabulate_chunk(std::size_t chunk, double predicted_mbps) {
  for (std::size_t q = 0; q < dt_.size(); ++q) {
    dt_[q] = manifest_->chunk_size_bits(chunk, q) / (predicted_mbps * 1e6);
    score_[q] = qoe_->quality_score(chunk, q);
  }
}

std::size_t MpcDp::choose_quality(const AbrObservation& observation) {
  if (manifest_ == nullptr) {
    throw std::logic_error{"MpcDp: begin_video not called"};
  }
  const double predicted = predictor_.predict(observation);

  const std::size_t num_q = manifest_->num_qualities();
  const std::size_t levels = params_.buffer_levels;
  const std::size_t depth_limit =
      std::min(params_.horizon,
               manifest_->num_chunks() - observation.chunk_index);
  const double rebuf_pen = qoe_->rebuffer_penalty();
  const double smooth_pen = qoe_->smoothness_penalty();
  const double chunk_dur = manifest_->chunk_duration_s();
  const double grid = static_cast<double>(levels - 1);
  // Grid level nearest a buffer in [0, max_buffer_s]: std::lround(buffer /
  // step) without the libm call (`whole` is the floor and x - whole is
  // exact, so halves round up as lround does).
  const double step = params_.max_buffer_s / grid;
  const auto level_of = [step](double buffer_s) {
    const double x = buffer_s / step;
    const auto whole = static_cast<std::size_t>(x);
    return whole + (x - static_cast<double>(whole) >= 0.5 ? 1 : 0);
  };

  // next_value_[level * Q + prev_quality] holds the optimal
  // score-to-horizon from depth d+1; zero beyond the horizon.
  next_value_.assign(levels * num_q, 0.0);

  for (std::size_t d = depth_limit; d-- > 1;) {
    const std::size_t chunk = observation.chunk_index + d;
    tabulate_chunk(chunk, predicted);
    for (std::size_t p = 0; p < num_q; ++p) {
      const double prev_score = qoe_->quality_score(chunk - 1, p);
      for (std::size_t q = 0; q < num_q; ++q) {
        smooth_[p * num_q + q] = smooth_pen * std::abs(score_[q] - prev_score);
      }
    }
    for (std::size_t level = 0; level < levels; ++level) {
      const double buffer =
          static_cast<double>(level) * params_.max_buffer_s / grid;
      for (std::size_t q = 0; q < num_q; ++q) {
        const double rebuffer = std::max(0.0, dt_[q] - buffer);
        const double next_buffer = std::min(
            std::max(0.0, buffer - dt_[q]) + chunk_dur, params_.max_buffer_s);
        base_[q] = score_[q] - rebuf_pen * rebuffer +
                   next_value_[level_of(next_buffer) * num_q + q];
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
  const std::size_t chunk = observation.chunk_index;
  const bool first_chunk = chunk == 0;
  const double prev_score =
      first_chunk ? 0.0
                  : qoe_->quality_score(chunk - 1, observation.last_quality);
  tabulate_chunk(chunk, predicted);
  std::size_t best_quality = 0;
  double best = -1e18;
  for (std::size_t q = 0; q < num_q; ++q) {
    const double rebuffer = std::max(0.0, dt_[q] - observation.buffer_s);
    const double next_buffer =
        std::min(std::max(0.0, observation.buffer_s - dt_[q]) + chunk_dur,
                 params_.max_buffer_s);
    const double smooth =
        first_chunk ? 0.0 : smooth_pen * std::abs(score_[q] - prev_score);
    const double v = score_[q] - rebuf_pen * rebuffer - smooth +
                     next_value_[level_of(next_buffer) * num_q + q];
    if (v > best) {
      best = v;
      best_quality = q;
    }
  }
  return best_quality;
}

}  // namespace netadv::abr
