// Environment-driven knobs shared by the benchmark harness and examples.
#pragma once

#include <string>

namespace netadv::util {

/// Multiplier applied to training-step budgets in benches and examples.
/// Reads NETADV_SCALE (default 1.0); values are clamped to [0.001, 100].
/// NETADV_SCALE=0.1 gives a fast smoke run, 1.0 the paper-scale run. A value
/// that is not a positive finite number falls back to 1.0; it and a clamped
/// value each log a warning naming the scale used instead.
double bench_scale() noexcept;

/// Directory where benches drop CSV artifacts. Reads NETADV_OUT_DIR
/// (default "bench_out"). The directory is created if missing; creation is
/// serialized so concurrent first calls from pool threads cannot race, and
/// failure to create it is a logged hard error (std::runtime_error), never a
/// silently returned unusable path.
std::string bench_output_dir();

/// Scale a nominal step budget by bench_scale(), with a floor so smoke runs
/// still exercise the code path.
std::size_t scaled_steps(std::size_t nominal, std::size_t floor = 256) noexcept;

}  // namespace netadv::util
