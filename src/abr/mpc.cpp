#include "abr/mpc.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <stdexcept>

namespace netadv::abr {

namespace {

// Lagrange multipliers tried by the bound: those below the rebuffer
// penalty, then the penalty itself (the bound needs lambda in [0, penalty]).
constexpr std::array<double, 7> kLambdas{0.0, 0.05, 0.1, 0.2, 0.35, 0.5, 1.0};

// Pruning slack relative to the largest magnitude a term of the search can
// reach: forty-odd roundings cost ~1e-14 of it, so this leaves five orders
// of margin while staying far below any real QoE gap between plans.
constexpr double kRelativeSlack = 1e-9;

}  // namespace

RobustMpc::RobustMpc(Params params)
    : params_(params), predictor_(params.throughput_window) {
  if (params_.horizon == 0 || params_.throughput_window == 0 ||
      params_.max_buffer_s <= 0.0) {
    throw std::invalid_argument{"RobustMpc: bad parameters"};
  }
  const double penalty = params_.qoe.rebuffer_penalty;
  if (penalty >= 0.0 && params_.qoe.smoothness_penalty >= 0.0) {
    for (double lambda : kLambdas) {
      if (lambda < penalty) lambdas_.push_back(lambda);
    }
    lambdas_.push_back(penalty);
  }
}

void RobustMpc::begin_video(const VideoManifest& manifest) {
  manifest_ = &manifest;
  predictor_.reset(manifest.bitrate_mbps(0));
  const std::size_t num_q = manifest.num_qualities();
  bitrate_.resize(num_q);
  for (std::size_t q = 0; q < num_q; ++q) {
    bitrate_[q] = manifest.bitrate_mbps(q);
  }
  const std::size_t depth = std::min(params_.horizon, manifest.num_chunks());
  dt_.resize(depth * num_q);
  bound_.resize(depth * lambdas_.size());
  below_.resize(depth + 1);
}

void RobustMpc::prepare_bounds(double buffer_s, double prev_bitrate_mbps) {
  const std::size_t num_q = bitrate_.size();
  const std::size_t depth = depth_limit_;
  const std::size_t num_l = lambdas_.size();
  const double chunk_s = manifest_->chunk_duration_s();
  const QoeParams& qoe = params_.qoe;

  below_[depth] = 0;
  for (std::size_t d = depth; d-- > 0;) below_[d] = num_q + num_q * below_[d + 1];
  stats_.nodes += below_[0];
  if (num_l == 0 || depth < 2) return;  // no child subtree to skip

  // Incumbent: the best constant plan, each summed exactly as search()
  // sums a leaf, so it is the value of a real plan.
  incumbent_ = -1e18;
  for (std::size_t q = 0; q < num_q; ++q) {
    double buffer = buffer_s;
    double prev = prev_bitrate_mbps;
    double value = 0.0;
    for (std::size_t d = 0; d < depth; ++d) {
      const double dt = dt_[d * num_q + q];
      const double rebuffer = std::max(0.0, dt - buffer);
      value = value + chunk_qoe(bitrate_[q], rebuffer, prev, qoe);
      buffer = std::min(std::max(0.0, buffer - dt) + chunk_s,
                        params_.max_buffer_s);
      prev = bitrate_[q];
    }
    incumbent_ = std::max(incumbent_, value);
  }

  // bound_[d * L + l]: the bound on chunks d.. before its buffer term,
  //   sum_{j >= d} max_q(bitrate_q - lambda_l * dt[j][q])
  //     + lambda_l * (depth - d - 1) * chunk_s,
  // for the child depths d = 1 .. depth - 1 (row 0 is unused).
  std::array<double, kLambdas.size() + 1> suffix{};
  const double max_bitrate = *std::max_element(bitrate_.begin(), bitrate_.end());
  double scale = qoe.rebuffer_penalty *
                 (std::abs(buffer_s) + static_cast<double>(depth) * chunk_s);
  for (std::size_t d = depth; d-- > 0;) {
    const double* dt = &dt_[d * num_q];
    const double max_dt = *std::max_element(dt, dt + num_q);
    scale += max_bitrate + qoe.rebuffer_penalty * max_dt +
             qoe.smoothness_penalty *
                 (max_bitrate + std::abs(prev_bitrate_mbps));
    if (d == 0) break;
    const double waits = static_cast<double>(depth - d - 1) * chunk_s;
    for (std::size_t l = 0; l < num_l; ++l) {
      const double lambda = lambdas_[l];
      double best = bitrate_[0] - lambda * dt[0];
      for (std::size_t q = 1; q < num_q; ++q) {
        best = std::max(best, bitrate_[q] - lambda * dt[q]);
      }
      suffix[l] += best;
      bound_[d * num_l + l] = suffix[l] + lambda * waits;
    }
  }
  slack_ = kRelativeSlack * scale;
}

double RobustMpc::search(std::size_t depth, double buffer_s,
                         double prev_bitrate_mbps, double qoe,
                         std::size_t* best_quality) {
  const std::size_t num_q = bitrate_.size();
  const double* dt = &dt_[depth * num_q];
  double best = -1e18;
  if (depth + 1 == depth_limit_) {
    for (std::size_t q = 0; q < num_q; ++q) {
      const double rebuffer = std::max(0.0, dt[q] - buffer_s);
      const double value =
          qoe + chunk_qoe(bitrate_[q], rebuffer, prev_bitrate_mbps, params_.qoe);
      if (value > best) {
        best = value;
        if (best_quality != nullptr) *best_quality = q;
      }
    }
    incumbent_ = std::max(incumbent_, best);
    return best;
  }

  const std::size_t num_l = lambdas_.size();
  const double* bound = bound_.data() + (depth + 1) * num_l;
  for (std::size_t q = 0; q < num_q; ++q) {
    const double rebuffer = std::max(0.0, dt[q] - buffer_s);
    double value =
        qoe + chunk_qoe(bitrate_[q], rebuffer, prev_bitrate_mbps, params_.qoe);
    const double next_buffer =
        std::min(std::max(0.0, buffer_s - dt[q]) + manifest_->chunk_duration_s(),
                 params_.max_buffer_s);
    // Skip the child when some lambda bounds the rest of every plan in it
    // strictly below what the incumbent needs.
    const double need = incumbent_ - slack_ - value;
    bool skip = false;
    for (std::size_t l = 0; l < num_l && !skip; ++l) {
      skip = bound[l] + lambdas_[l] * next_buffer < need;
    }
    if (skip) {
      stats_.pruned += below_[depth + 1];
      continue;
    }
    value = search(depth + 1, next_buffer, bitrate_[q], value, nullptr);
    if (value > best) {
      best = value;
      if (best_quality != nullptr) *best_quality = q;
    }
  }
  return best;
}

std::size_t RobustMpc::choose_quality(const AbrObservation& observation) {
  if (manifest_ == nullptr) throw std::logic_error{"RobustMpc: begin_video not called"};
  const std::size_t chunk = observation.chunk_index;
  if (chunk >= manifest_->num_chunks()) {
    throw std::out_of_range{"RobustMpc: chunk index past the end of the video"};
  }

  const double predicted = predictor_.predict(observation);
  const std::size_t num_q = bitrate_.size();
  depth_limit_ = std::min(params_.horizon, manifest_->num_chunks() - chunk);
  for (std::size_t d = 0; d < depth_limit_; ++d) {
    for (std::size_t q = 0; q < num_q; ++q) {
      dt_[d * num_q + q] =
          manifest_->chunk_size_bits(chunk + d, q) / (predicted * 1e6);
    }
  }
  prepare_bounds(observation.buffer_s, observation.last_bitrate_mbps);
  std::size_t best_quality = 0;
  search(0, observation.buffer_s, observation.last_bitrate_mbps, 0.0,
         &best_quality);
  return best_quality;
}

}  // namespace netadv::abr
