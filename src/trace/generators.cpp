#include "trace/generators.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace netadv::trace {

std::vector<Trace> TraceGenerator::generate_many(std::size_t count,
                                                 util::Rng& rng) const {
  std::vector<Trace> traces;
  traces.reserve(count);
  for (std::size_t i = 0; i < count; ++i) traces.push_back(generate(rng));
  return traces;
}

UniformRandomGenerator::UniformRandomGenerator(Params params)
    : params_(params) {
  if (params_.segments == 0 || params_.segment_duration_s <= 0.0 ||
      params_.bandwidth_min_mbps <= 0.0 ||
      params_.bandwidth_max_mbps < params_.bandwidth_min_mbps) {
    throw std::invalid_argument{"UniformRandomGenerator: bad parameters"};
  }
}

Trace UniformRandomGenerator::generate(util::Rng& rng) const {
  Trace trace;
  for (std::size_t i = 0; i < params_.segments; ++i) {
    Segment s;
    s.duration_s = params_.segment_duration_s;
    s.bandwidth_mbps =
        rng.uniform(params_.bandwidth_min_mbps, params_.bandwidth_max_mbps);
    s.latency_ms = rng.uniform(params_.latency_min_ms, params_.latency_max_ms);
    s.loss_rate = rng.uniform(params_.loss_min, params_.loss_max);
    trace.append(s);
  }
  return trace;
}

FccLikeGenerator::FccLikeGenerator(Params params) : params_(params) {
  if (params_.segments == 0 ||
      params_.bandwidth_max_mbps < params_.bandwidth_min_mbps) {
    throw std::invalid_argument{"FccLikeGenerator: bad parameters"};
  }
}

Trace FccLikeGenerator::generate(util::Rng& rng) const {
  Trace trace;
  // Broadband plans cluster toward the upper end of the range; draw the
  // level from a beta-like skew by taking the max of two uniforms.
  auto draw_level = [&] {
    const double u = std::max(rng.uniform(), rng.uniform());
    return params_.bandwidth_min_mbps +
           u * (params_.bandwidth_max_mbps - params_.bandwidth_min_mbps);
  };
  double level = draw_level();
  for (std::size_t i = 0; i < params_.segments; ++i) {
    if (rng.bernoulli(params_.level_change_prob)) level = draw_level();
    const double jitter = 1.0 + params_.jitter_frac * rng.normal();
    Segment s;
    s.duration_s = params_.segment_duration_s;
    s.bandwidth_mbps = std::clamp(level * jitter, params_.bandwidth_min_mbps,
                                  params_.bandwidth_max_mbps);
    s.latency_ms = params_.latency_ms;
    s.loss_rate = 0.0;
    trace.append(s);
  }
  return trace;
}

Hsdpa3gLikeGenerator::Hsdpa3gLikeGenerator(Params params) : params_(params) {
  if (params_.segments == 0 ||
      params_.bandwidth_max_mbps < params_.bandwidth_min_mbps ||
      params_.fade_persistence < 0.0 || params_.fade_persistence >= 1.0) {
    throw std::invalid_argument{"Hsdpa3gLikeGenerator: bad parameters"};
  }
}

Trace Hsdpa3gLikeGenerator::generate(util::Rng& rng) const {
  Trace trace;
  double fade = params_.mean_mbps;
  std::size_t dip_remaining = 0;
  for (std::size_t i = 0; i < params_.segments; ++i) {
    // AR(1) slow fade around the mean.
    fade = params_.mean_mbps +
           params_.fade_persistence * (fade - params_.mean_mbps) +
           params_.fade_sigma_mbps * rng.normal();
    double bw = fade;
    if (dip_remaining > 0) {
      --dip_remaining;
      bw = params_.dip_bandwidth_mbps;
    } else if (rng.bernoulli(params_.dip_prob)) {
      dip_remaining = static_cast<std::size_t>(
          std::max(0.0, rng.exponential(1.0 / params_.dip_mean_segments)));
      bw = params_.dip_bandwidth_mbps;
    }
    Segment s;
    s.duration_s = params_.segment_duration_s;
    s.bandwidth_mbps = std::clamp(bw, params_.bandwidth_min_mbps,
                                  params_.bandwidth_max_mbps);
    s.latency_ms = params_.latency_ms;
    s.loss_rate = 0.0;
    trace.append(s);
  }
  return trace;
}

}  // namespace netadv::trace
