// Cross-session batched decision-making — the neural-protocol fast path of
// the serving front end (engine.hpp).
//
// A per-session AbrProtocol answers one observation at a time, so serving N
// pensieve sessions costs N one-row forwards per tick. A BatchPolicy
// instead answers a whole tick's worth of observations at once;
// PensieveBatchPolicy gathers the feature vectors and runs ONE
// PpoAgent::act_deterministic_batch (gemm-shaped) per tick.
// act_deterministic_batch is bit-identical to N act_deterministic calls, so
// the batched path reproduces the per-session path's decisions — and
// therefore its session summaries — exactly; only decisions/sec changes.
// bench_serve measures the gap.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "abr/pensieve.hpp"
#include "abr/protocol.hpp"
#include "abr/video.hpp"
#include "rl/ppo.hpp"

namespace netadv::serve {

/// One decision per observation, computed jointly. Called from the engine's
/// serial gather step (never concurrently with itself), so implementations
/// may keep mutable state.
class BatchPolicy {
 public:
  virtual ~BatchPolicy() = default;

  virtual std::string name() const = 0;

  /// Called once before a serving run, with the engine's manifest.
  virtual void begin_serving(const abr::VideoManifest& manifest) = 0;

  /// Quality index for each observation, in order. Every pointer is
  /// non-null and valid only for the duration of the call.
  virtual std::vector<std::size_t> choose_batch(
      std::span<const abr::AbrObservation* const> observations) = 0;
};

/// Pensieve behind the batch seam: features via pensieve_features(), one
/// act_deterministic_batch per tick. Owns a private copy of the agent
/// (inference writes the agent's arenas), like OwnedPensievePolicy.
class PensieveBatchPolicy final : public BatchPolicy {
 public:
  explicit PensieveBatchPolicy(const rl::PpoAgent& agent) : agent_(agent) {}

  PensieveBatchPolicy(const PensieveBatchPolicy&) = delete;
  PensieveBatchPolicy& operator=(const PensieveBatchPolicy&) = delete;

  std::string name() const override { return "pensieve-batch"; }
  void begin_serving(const abr::VideoManifest& manifest) override {
    manifest_ = &manifest;
  }
  std::vector<std::size_t> choose_batch(
      std::span<const abr::AbrObservation* const> observations) override;

 private:
  rl::PpoAgent agent_;
  const abr::VideoManifest* manifest_ = nullptr;
};

}  // namespace netadv::serve
