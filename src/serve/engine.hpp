// netadv::serve — the session-serving front end.
//
// Everything else in the repo replays ONE (protocol, trace) pair per task; a
// real ABR deployment multiplexes thousands of concurrent playbacks through
// one process. SessionEngine reproduces that shape on the simulator: each
// session owns a trace cursor, a StreamingSession (which also keeps the
// observation its protocol sees), and (in per-session mode) a private
// protocol instance, and the engine
// drives all of them in lockstep "ticks" — one quality decision plus one
// chunk download per active session per tick — until every session finishes
// its video.
//
// Two decision paths share the identical session dynamics:
//
//   per-session  run(factory, ...): every session gets its own AbrProtocol
//                from a ProtocolFactory; a tick's decisions+downloads fan out
//                over the shared util::ThreadPool, each task confined to its
//                own session slot (the DESIGN.md §7 determinism contract).
//   batched      run(policy, ...): observations of all active sessions are
//                gathered in session order and answered by ONE
//                BatchPolicy::choose_batch call (for pensieve: one
//                N-row act_deterministic_batch instead of N one-row
//                forwards), then downloads fan out as above.
//
// Determinism: session i always streams trace (i mod num_traces), decisions
// depend only on that session's own history, and summaries are reduced in
// session order — so the SessionSummary vector is a pure function of
// (manifest, traces, protocol, sessions) and is bit-identical at any thread
// count and across the two decision paths (given bit-identical policies,
// e.g. OwnedPensievePolicy vs PensieveBatchPolicy over the same agent).
// Wall-clock only ever appears in ServeStats, never in summaries.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "abr/qoe_model.hpp"
#include "abr/runner.hpp"
#include "abr/sim.hpp"
#include "abr/video.hpp"
#include "serve/batch_policy.hpp"
#include "trace/trace.hpp"
#include "util/thread_pool.hpp"

namespace netadv::serve {

/// Deterministic end-of-playback record of one session. This is the unit
/// the byte-identity CI check compares across thread counts, so it must
/// never contain wall-clock or thread-dependent values.
struct SessionSummary {
  std::size_t session = 0;      ///< session index in [0, num_sessions)
  std::size_t trace = 0;        ///< trace index the session streamed
  std::size_t chunks = 0;       ///< chunks downloaded (== manifest chunks)
  double qoe = 0.0;             ///< total score under the selected QoE model
  double qoe_lin = 0.0;         ///< QoE_lin (abr::total_qoe), for comparison
  double rebuffer_s = 0.0;      ///< total stall time
  double mean_bitrate_mbps = 0.0;
  std::size_t quality_switches = 0;

  bool operator==(const SessionSummary&) const = default;
};

/// Write summaries as CSV (header + one row per session, session order).
/// Fixed formatting (%.17g) so equal summaries produce byte-equal files.
void save_session_summaries(std::span<const SessionSummary> summaries,
                            const std::string& path);

/// Throughput/latency side-channel of one run. Latencies are wall-clock and
/// thus nondeterministic; they are reported by bench_serve / `netadv_cli
/// serve` but never written into job artifacts.
struct ServeStats {
  std::size_t sessions = 0;
  std::size_t decisions = 0;
  std::size_t ticks = 0;
  double elapsed_s = 0.0;
  /// One entry per decision (batched mode: batch time / batch size,
  /// replicated). Feed to util::percentile for p50/p99.
  std::vector<double> decision_latency_s;

  double sessions_per_s() const noexcept {
    return elapsed_s > 0.0 ? static_cast<double>(sessions) / elapsed_s : 0.0;
  }
  double decisions_per_s() const noexcept {
    return elapsed_s > 0.0 ? static_cast<double>(decisions) / elapsed_s : 0.0;
  }
};

/// Multiplexes N concurrent simulated playbacks through one process.
class SessionEngine {
 public:
  /// Sessions stream `manifest`; session i draws per-chunk bandwidth from
  /// traces[i % traces.size()]. Throws std::invalid_argument on an empty
  /// trace set.
  SessionEngine(abr::VideoManifest manifest, std::vector<trace::Trace> traces);

  const abr::VideoManifest& manifest() const noexcept { return manifest_; }
  const std::vector<trace::Trace>& traces() const noexcept { return traces_; }

  /// Per-session mode: one private protocol instance per session from
  /// `make_protocol`, decisions+downloads fanned out per tick over `pool`
  /// (sequential when null). `qoe` scores every finished session (the model
  /// is begin_video-bound here; scoring is const afterwards, so one model
  /// serves all sessions). Returns summaries in session order; fills
  /// `stats` when non-null. Throws std::invalid_argument when sessions == 0.
  std::vector<SessionSummary> run(const abr::ProtocolFactory& make_protocol,
                                  abr::QoeModel& qoe, std::size_t sessions,
                                  util::ThreadPool* pool = nullptr,
                                  ServeStats* stats = nullptr);

  /// Batched mode: all active sessions' observations answered by one
  /// policy.choose_batch call per tick; downloads still fan out over `pool`.
  std::vector<SessionSummary> run(BatchPolicy& policy, abr::QoeModel& qoe,
                                  std::size_t sessions,
                                  util::ThreadPool* pool = nullptr,
                                  ServeStats* stats = nullptr);

 private:
  struct Session;

  std::vector<Session> make_sessions(std::size_t sessions) const;
  void apply_download(Session& session, std::size_t quality) const;
  std::vector<SessionSummary> summarize(std::span<const Session> sessions,
                                        abr::QoeModel& qoe) const;

  abr::VideoManifest manifest_;
  std::vector<trace::Trace> traces_;
};

}  // namespace netadv::serve
