// The benchmark's workloads. Each builds its inputs from the seed in
// setup() and then runs rounds: a round is a fixed amount of work, a pure
// function of the seed, so every round of one run must produce the same
// digest. The harness (main.cpp) times set-up and rounds.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "util/hash.hpp"

namespace perfbench {

struct Options {
  std::uint64_t seed = 1;
  bool tiny = false;                 ///< self-test size
  bool inject_bad_decision = false;  ///< self-test fault injection
  std::string repo_root = ".";       ///< where examples/ lives
  std::string work_dir;              ///< scratch for campaign artifacts
};

struct RoundResult {
  double wall_s = 0.0;  ///< the timed work, output checks excluded
  double cpu_s = 0.0;   ///< process user+sys time over the same span
  std::size_t attempted = 0;  ///< operations run
  std::size_t failed = 0;     ///< operations whose output check failed
  std::uint64_t digest = netadv::util::kFnvOffsetBasis;
  std::size_t decisions = 0;
  std::vector<double> latency_s;  ///< per decision
  /// Traced rounds only: self seconds per layer, wall-equivalent (lane
  /// seconds over the phase's lane count), and exact per-round counts.
  std::map<std::string, double> layers;
  std::map<std::string, double> counts;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Input generation, table/spec loading and agent construction.
  virtual void setup() = 0;
  /// One fixed amount of work; `traced` installs the layer probes.
  virtual RoundResult round(bool traced) = 0;
};

std::unique_ptr<Workload> make_fig1(const Options& options);
std::unique_ptr<Workload> make_serve(const Options& options);
std::unique_ptr<Workload> make_cc_campaign(const Options& options);

/// Process user+sys CPU seconds so far.
double process_cpu_s();

/// Marks the timed span of a round: construct at its start, stop() at its
/// end to fill the round's wall_s and cpu_s.
class TimedSpan {
 public:
  TimedSpan();
  void stop(RoundResult& result) const;

 private:
  std::chrono::steady_clock::time_point start_;
  double cpu_start_;
};

/// Fold the %.17g rendering of `value` into a digest.
void hash_double(std::uint64_t& digest, double value);

}  // namespace perfbench
