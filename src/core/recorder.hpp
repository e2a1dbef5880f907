// Rolling trained adversaries out against their targets and recording what
// happened — the bridge from an adversary policy to the paper's artifacts:
//  * reusable adversarial traces (replayed against every protocol, Fig. 1-2);
//  * per-chunk ABR episode timelines (Fig. 3);
//  * per-epoch CC timelines with both physical conditions and the raw
//    pre-clipping policy actions (Fig. 5 and Fig. 6).
//
// Every batch function here (record_abr_traces, record_cc_episodes,
// record_fairness_episodes, replay_cc_traces) runs
// `count` independent tasks across an optional pool (sequentially when
// null) through one fan-out with one determinism contract: a child seed per
// task is forked from `seed` on the calling thread in task order before
// dispatch, each task touches only its own clone/env/stream, and results
// land in the slot of their own index — so a batch is bit-identical at every
// thread count, including pool == nullptr.
#pragma once

#include <cstddef>
#include <vector>

#include "abr/runner.hpp"
#include "cc/sender.hpp"
#include "core/abr_adversary.hpp"
#include "core/cc_adversary.hpp"
#include "core/fairness_adversary.hpp"
#include "rl/ppo.hpp"
#include "trace/trace.hpp"
#include "util/thread_pool.hpp"

namespace netadv::core {

/// Run the adversary online against the env's target `count` times and
/// record each episode's bandwidth sequence as a replayable Trace (one
/// segment per chunk). Stochastic actions give a diverse corpus, exactly how
/// the paper's 200 traces were produced; deterministic gives the single
/// noise-free trace.
std::vector<trace::Trace> record_abr_traces(rl::PpoAgent& agent,
                                            AbrAdversaryEnv& env,
                                            std::size_t count, util::Rng& rng,
                                            bool deterministic = false);

/// Batch corpus generation: `count` adversarial traces, one fresh (cloned
/// agent, fresh protocol, fresh env) triple per task. `make_protocol` must
/// be thread-safe to call (it only constructs new objects).
std::vector<trace::Trace> record_abr_traces(
    const rl::PpoAgent& agent, const abr::VideoManifest& manifest,
    const abr::ProtocolFactory& make_protocol,
    const AbrAdversaryEnv::Params& params,
    std::size_t count, std::uint64_t seed, bool deterministic = false,
    util::ThreadPool* pool = nullptr);

/// Per-chunk timeline of one adversarial episode (Figure 3's panels).
struct AbrEpisodeRecord {
  std::vector<double> bandwidth_mbps;   ///< adversary's actions
  std::vector<double> bitrate_kbps;     ///< target's selections
  std::vector<double> buffer_s;         ///< client buffer after each chunk
  std::vector<double> rebuffer_s;
  double total_qoe = 0.0;
  trace::Trace trace;                   ///< the same episode as a Trace
};

AbrEpisodeRecord record_abr_episode(rl::PpoAgent& agent, AbrAdversaryEnv& env,
                                    util::Rng& rng,
                                    bool deterministic = true);

/// What every per-epoch record of a link adversary (core::LinkControl)
/// holds: the physical conditions applied per epoch, and the same episode
/// as a Trace.
struct LinkEpisodeRecord {
  std::vector<double> bandwidth_mbps;
  std::vector<double> latency_ms;
  std::vector<double> loss_rate;
  trace::Trace trace;  ///< per-epoch segments, replayable
};

/// Per-epoch timeline of one CC adversarial episode.
struct CcEpisodeRecord : LinkEpisodeRecord {
  // Raw policy outputs before clipping (Figure 6 plots these).
  std::vector<double> raw_bandwidth;
  std::vector<double> raw_latency;
  std::vector<double> raw_loss;
  // Target's observed behaviour.
  std::vector<double> throughput_mbps;
  std::vector<double> utilization;
  std::vector<double> queue_delay_s;
  /// BBR state per epoch (cast of BbrSender::Mode; -1 if the target is not
  /// BBR) — lets Figure 6 align adversary actions with probing phases.
  std::vector<int> bbr_mode;
  double mean_utilization = 0.0;
};

CcEpisodeRecord record_cc_episode(rl::PpoAgent& agent, CcAdversaryEnv& env,
                                  util::Rng& rng, bool deterministic = true);

/// Batch variant of record_cc_episode: one fresh (cloned agent, fresh env
/// with a fresh target sender) pair per task. `make_sender` may be null for
/// the env's default target (BBR).
std::vector<CcEpisodeRecord> record_cc_episodes(
    const rl::PpoAgent& agent, const CcAdversaryEnv::Params& params,
    const cc::SenderFactory& make_sender, std::size_t count,
    std::uint64_t seed, bool deterministic = false,
    util::ThreadPool* pool = nullptr);

/// Per-epoch timeline of one fairness adversarial episode (a flow mix on
/// the shared bottleneck, optionally with a cross-traffic accomplice or a
/// late-joining flow — whichever scenario the env encodes).
struct FairnessEpisodeRecord : LinkEpisodeRecord {
  /// Per-epoch mix-flow throughputs: flow_throughput_mbps[f][epoch]
  /// (accomplice traffic excluded — it's the attack, not the subject).
  std::vector<std::vector<double>> flow_throughput_mbps;
  std::vector<double> jain;                 ///< per-epoch mix Jain index
  std::vector<double> victim_utilization;   ///< mix flow 0's capacity share
  std::vector<double> aggregate_utilization;
  double mean_jain = 1.0;
  double mean_victim_utilization = 0.0;
  double mean_aggregate_utilization = 0.0;
  double late_join_time_s = 0.0;  ///< kLateJoin: this episode's drawn arrival
};

/// `count` fairness episodes, one fresh (cloned agent, fresh env with fresh
/// mix senders) pair per task.
std::vector<FairnessEpisodeRecord> record_fairness_episodes(
    const rl::PpoAgent& agent, const FairnessAdversaryEnv::Params& params,
    std::vector<cc::SenderFactory> factories,
    std::size_t count, std::uint64_t seed, bool deterministic = false,
    util::ThreadPool* pool = nullptr);

/// Replay a recorded CC trace (fixed conditions per segment) against a flow
/// mix sharing the bottleneck, ignoring the adversary: used to check that
/// recorded traces reproduce the damage without re-running the adversary
/// (Section 2.1). Flow i starts at i * `stagger_s`, like the fairness env's
/// staggered arrivals; a one-flow mix replays the Section-4 single sender.
/// A negative or non-finite `stagger_s` throws std::invalid_argument.
struct CcReplayResult {
  double mean_utilization = 0.0;         ///< all flows' capacity share
  double mean_victim_utilization = 0.0;  ///< flow 0's capacity share
  double mean_jain = 1.0;
  std::vector<double> mean_flow_throughput_mbps;  ///< per flow, episode mean
  std::vector<double> utilization;                ///< per segment
};

CcReplayResult replay_cc_trace(const std::vector<cc::SenderFactory>& mix,
                               const trace::Trace& t,
                               const cc::LinkSim::Params& link_params,
                               double stagger_s, std::uint64_t seed);

/// Replay a whole trace corpus, fresh senders and one forked link seed per
/// trace.
std::vector<CcReplayResult> replay_cc_traces(
    const std::vector<cc::SenderFactory>& mix,
    const std::vector<trace::Trace>& traces,
    const cc::LinkSim::Params& link_params, double stagger_s,
    std::uint64_t seed, util::ThreadPool* pool = nullptr);

}  // namespace netadv::core
