// Per-lane span ledger for the traced run.
//
// Every thread that executes a probed seam (probes.hpp) accumulates into its
// own Lane — no locks or atomics on the hot path. A lane registers itself
// once, on the thread's first probe; the harness merges all lanes between
// phases, when no pool task is in flight (the pool's join orders the
// workers' writes before the merge).
#pragma once

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// The ABR protocols the workloads decide with; indexes Lane::decide_s.
enum Proto : std::size_t { kMpc, kMpcDp, kPensieve, kBb, kProtoCount };

/// Metric-name spelling of each Proto ("mpc", "mpc_dp", ...).
const char* proto_name(Proto proto) noexcept;

/// Accumulated seam time and counts of one thread.
struct Lane {
  double env_step_s = 0.0;    ///< rl::Env::reset/step, inclusive
  double env_decide_s = 0.0;  ///< protocol decisions made inside an env step
  double update_s = 0.0;      ///< last env step of an update -> its callback
  double batch_infer_s = 0.0; ///< serve::BatchPolicy::choose_batch
  std::array<double, kProtoCount> decide_s{};
  std::uint64_t env_steps = 0;
  std::uint64_t updates = 0;
  std::uint64_t batches = 0;
  std::uint64_t batch_decisions = 0;
  std::array<std::uint64_t, kProtoCount> decisions{};
  /// Seconds of every timed protocol decision or exp job.
  std::vector<double> latency_s;
  /// exp job seconds by "<kind>.<domain>".
  std::map<std::string, double> job_s;
  bool in_env_step = false;

  /// Fold `other` into this lane.
  void add(const Lane& other);
};

/// This thread's lane (registered on first use, lives for the process).
Lane& lane();

/// Zero every registered lane. Only call with no probed work in flight.
void reset_lanes();

/// Sum of every registered lane, which are then zeroed. Only call with no
/// probed work in flight.
Lane take_lanes();

}  // namespace perfbench
