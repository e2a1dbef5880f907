// Pensieve (Mao et al., SIGCOMM 2017) — the learning-based ABR protocol the
// paper both attacks and robustifies. This is a re-implementation on our RL
// substrate: the same observation features and discrete bitrate action space
// as the original, trained with PPO in the chunk-level simulator (the
// original used A3C; the paper itself swaps trainers freely, using
// stable-baselines PPO for its adversaries).
//
// Three pieces:
//  * pensieve_features()  — the feature vector shared by training and serving;
//  * PensieveEnv          — rl::Env where one episode is one video playback
//                           over a trace drawn from a corpus;
//  * PensievePolicy       — AbrProtocol adapter over a trained agent.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "abr/protocol.hpp"
#include "abr/qoe.hpp"
#include "abr/sim.hpp"
#include "abr/video.hpp"
#include "rl/env.hpp"
#include "rl/ppo.hpp"
#include "trace/trace.hpp"

namespace netadv::abr {

/// History length of the throughput/download-time windows in the feature
/// vector (Pensieve's k = 8).
inline constexpr std::size_t kPensieveHistory = 8;

/// Feature layout:
///   [0]              last chunk bitrate / max bitrate
///   [1]              buffer (seconds / 10)
///   [2 .. 2+k)       throughput history, Mbps (most recent first, 0-padded)
///   [2+k .. 2+2k)    download-time history, seconds (same order)
///   [2+2k .. 2+2k+Q) next chunk sizes, Mbits
///   [2+2k+Q]         remaining chunks / total chunks
std::size_t pensieve_feature_size(const VideoManifest& manifest);
rl::Vec pensieve_features(const AbrObservation& observation,
                          const VideoManifest& manifest);

/// Training environment: the agent streams one whole video per episode, with
/// per-chunk bandwidth taken from a trace drawn uniformly from the corpus.
/// Reward per step is the chunk's QoE_lin contribution.
class PensieveEnv final : public rl::Env {
 public:
  PensieveEnv(VideoManifest manifest, std::vector<trace::Trace> traces,
              QoeParams qoe = {});

  std::string name() const override { return "pensieve-env"; }
  std::size_t observation_size() const override;
  rl::ActionSpec action_spec() const override;
  rl::Vec reset(util::Rng& rng) override;
  rl::StepResult step(const rl::Vec& action, util::Rng& rng) override;

  /// Swap the training corpus (used by the Section 2.3 robustification
  /// pipeline to append adversarial traces mid-training).
  void set_traces(std::vector<trace::Trace> traces);
  const std::vector<trace::Trace>& traces() const noexcept { return traces_; }
  const VideoManifest& manifest() const noexcept { return manifest_; }

 private:
  rl::Vec observe() const;

  VideoManifest manifest_;
  std::vector<trace::Trace> traces_;
  QoeParams qoe_;

  StreamingSession session_;
  const trace::Trace* current_trace_ = nullptr;
  AbrObservation obs_;
};

/// Default PPO hyperparameters for training Pensieve in this simulator.
rl::PpoConfig pensieve_ppo_config();

/// Construct an untrained Pensieve agent matched to `manifest`.
rl::PpoAgent make_pensieve_agent(const VideoManifest& manifest,
                                 std::uint64_t seed,
                                 const rl::PpoConfig& config = pensieve_ppo_config());

/// Serve a trained agent behind the AbrProtocol interface (deterministic
/// greedy policy, like deploying Pensieve's trained actor).
class PensievePolicy final : public AbrProtocol {
 public:
  /// Non-owning: `agent` must outlive the policy.
  explicit PensievePolicy(rl::PpoAgent& agent, std::string name = "pensieve");

  std::string name() const override { return name_; }
  void begin_video(const VideoManifest& manifest) override;
  std::size_t choose_quality(const AbrObservation& observation) override;

 private:
  rl::PpoAgent& agent_;
  std::string name_;
  const VideoManifest* manifest_ = nullptr;
};

/// PensievePolicy over a *private copy* of a trained PPO agent. Use one per
/// parallel task: concurrent workers serving the same trained Pensieve must
/// never share an agent (act_deterministic writes the agent's arenas), so
/// factories hand each task its own OwnedPensievePolicy and the source agent
/// is only read at construction time.
class OwnedPensievePolicy final : public AbrProtocol {
 public:
  explicit OwnedPensievePolicy(const rl::PpoAgent& agent,
                               std::string name = "pensieve")
      : agent_(agent), policy_(agent_, std::move(name)) {}

  // policy_ points into agent_, so default copy/move would dangle.
  OwnedPensievePolicy(const OwnedPensievePolicy&) = delete;
  OwnedPensievePolicy& operator=(const OwnedPensievePolicy&) = delete;

  std::string name() const override { return policy_.name(); }
  void begin_video(const VideoManifest& manifest) override {
    policy_.begin_video(manifest);
  }
  std::size_t choose_quality(const AbrObservation& observation) override {
    return policy_.choose_quality(observation);
  }

 private:
  rl::PpoAgent agent_;
  PensievePolicy policy_;
};

}  // namespace netadv::abr
