// Synthetic trace generators.
//
// The paper trains/tests on two corpora we cannot ship: the FCC "Measuring
// Broadband America" dataset [8] and the Norway 3G/HSDPA commute traces
// [19]. Per the substitution policy in DESIGN.md we model each corpus's
// published character instead:
//  * FCC broadband: mostly-stable last-mile links — long level-holds with
//    occasional step changes and mild jitter.
//  * Norway 3G/HSDPA: commute-path cellular — low mean rate, strong slow
//    fading, bursty deep dips (tunnels/underpasses) and recovery ramps.
// Both emit bandwidth sequences in the ABR action range used by the paper's
// adversary (0.8-4.8 Mbps by default) so protocol and adversary operate over
// the same support.
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "trace/trace.hpp"
#include "util/rng.hpp"

namespace netadv::trace {

/// Interface for anything that can produce traces (synthetic corpora here;
/// core::TraceRecorder produces adversarial ones).
class TraceGenerator {
 public:
  virtual ~TraceGenerator() = default;
  virtual std::string name() const = 0;
  virtual Trace generate(util::Rng& rng) const = 0;

  /// Convenience: a corpus of `count` independent traces.
  std::vector<Trace> generate_many(std::size_t count, util::Rng& rng) const;
};

/// I.i.d. uniform conditions per segment — the paper's "random traces"
/// baseline (Figure 1c uses the same action space as the adversary).
class UniformRandomGenerator final : public TraceGenerator {
 public:
  struct Params {
    std::size_t segments = 48;
    double segment_duration_s = 4.0;
    double bandwidth_min_mbps = 0.8;
    double bandwidth_max_mbps = 4.8;
    double latency_min_ms = 80.0;
    double latency_max_ms = 80.0;
    double loss_min = 0.0;
    double loss_max = 0.0;
  };

  UniformRandomGenerator() : UniformRandomGenerator(Params{}) {}
  explicit UniformRandomGenerator(Params params);
  std::string name() const override { return "uniform-random"; }
  Trace generate(util::Rng& rng) const override;

 private:
  Params params_;
};

/// FCC-broadband-like generator (see file comment).
class FccLikeGenerator final : public TraceGenerator {
 public:
  struct Params {
    std::size_t segments = 48;
    double segment_duration_s = 4.0;
    double bandwidth_min_mbps = 0.8;
    double bandwidth_max_mbps = 4.8;
    /// Probability per segment of a step change to a new level.
    double level_change_prob = 0.06;
    /// Std-dev of multiplicative within-level jitter.
    double jitter_frac = 0.05;
    double latency_ms = 80.0;
  };

  FccLikeGenerator() : FccLikeGenerator(Params{}) {}
  explicit FccLikeGenerator(Params params);
  std::string name() const override { return "fcc-broadband-like"; }
  Trace generate(util::Rng& rng) const override;

 private:
  Params params_;
};

/// Norway-3G/HSDPA-like generator (see file comment).
class Hsdpa3gLikeGenerator final : public TraceGenerator {
 public:
  struct Params {
    std::size_t segments = 48;
    double segment_duration_s = 4.0;
    double bandwidth_min_mbps = 0.2;
    double bandwidth_max_mbps = 4.8;
    /// Mean of the slow-fading process.
    double mean_mbps = 1.8;
    /// AR(1) coefficient of the slow fade.
    double fade_persistence = 0.85;
    /// Std-dev of the fade innovation (Mbps).
    double fade_sigma_mbps = 0.5;
    /// Probability per segment of entering a deep dip (tunnel).
    double dip_prob = 0.05;
    /// Mean dip length in segments (geometric).
    double dip_mean_segments = 2.0;
    double dip_bandwidth_mbps = 0.25;
    double latency_ms = 120.0;
  };

  Hsdpa3gLikeGenerator() : Hsdpa3gLikeGenerator(Params{}) {}
  explicit Hsdpa3gLikeGenerator(Params params);
  std::string name() const override { return "hsdpa-3g-like"; }
  Trace generate(util::Rng& rng) const override;

 private:
  Params params_;
};

}  // namespace netadv::trace
