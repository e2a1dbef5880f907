// Spool-based multi-process campaign execution: any number of worker
// processes (`netadv_cli campaign <spec> --worker`) cooperate on one
// campaign DAG through two shared files per out_dir — the append-mode
// manifest (manifest.hpp) and a claims directory under
// `<out_dir>/spool/claims/`.
//
// The protocol has no coordinator and no shared memory; every decision is
// derived from the filesystem:
//
//  1. A worker reads the manifest and derives each job's state in
//     topological order (derive_spool_view): a job is *settled* when the
//     manifest holds a completed/failed entry whose params_hash and
//     inputs_hash match the current campaign (and, for completed entries,
//     whose artifacts still exist); it is *ready* when every dependency is
//     settled-ok; it *waits* while a dependency is unsettled; it is
//     *blocked* when a dependency settled-failed. Dependents therefore
//     only become claimable after all their inputs' provenance hashes have
//     settled — the inputs_hash is computed from the dependencies' actual
//     artifact bytes, so a dependency re-run with changed outputs
//     invalidates its dependents on every worker identically.
//
//  2. To execute a ready job the worker creates
//     `spool/claims/<job>.claim` with O_CREAT|O_EXCL
//     (util::create_file_exclusive): the kernel guarantees exactly one
//     creator, so duplicate claims are impossible by construction. After
//     claiming, the worker re-reads the manifest (another worker may have
//     settled the job between the read and the claim) before executing.
//
//  3. While a job runs, a heartbeat thread refreshes the claim file's
//     mtime (atomic write-tmp-then-rename, util::replace_file) every
//     lease/4 seconds. A claim whose mtime is older than the lease is
//     presumed dead — its owner was killed (kill -9 stops the heartbeat).
//     A worker breaks a stale claim by *renaming* it to a unique sibling
//     (util::steal_file): rename is atomic, so when several workers race
//     to break the same claim exactly one wins and the rest see ENOENT.
//
//  4. Execution itself goes through the same JobRunner path as
//     single-process run_campaign, appending to the manifest in kAppend
//     mode (one write(2) per line, torn-tail tolerant). Worker-count
//     identity is therefore a corollary of thread-count identity: seeds
//     are resolved per job from the campaign declaration, executors are
//     pure functions of (params, seed, input artifacts), so *which
//     process* runs a job cannot change its bytes.
//
// Idempotence: a spurious double execution (a live worker's claim is
// stolen because its heartbeat stalled past the lease) is harmless — both
// executions write identical artifact bytes and the duplicate manifest
// line is benign (reuse checks take the first match). The one liveness
// caveat: a *hung but alive* worker holds its claim forever, because the
// heartbeat thread keeps refreshing it; kill the process to expire the
// lease.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "exp/campaign.hpp"
#include "exp/manifest.hpp"
#include "exp/scheduler.hpp"
#include "util/thread_pool.hpp"

namespace netadv::exp {

/// `<out_dir>/spool` — claim files live in `<spool>/claims/`.
std::string spool_dir(const std::string& out_dir);

/// `<out_dir>/spool/claims/<job>.claim` — existence means "being worked".
std::string claim_path(const std::string& out_dir, const std::string& job);

/// A job's state as derived from the manifest alone (no claims involved —
/// claims only arbitrate who acts, never what is true).
enum class JobState {
  kWaiting,        ///< some dependency not yet settled
  kReady,          ///< all dependencies settled-ok; claimable
  kBlocked,        ///< a dependency settled-failed; blocked line not yet written
  kSettledOk,      ///< reusable completed/skipped-cached entry exists
  kSettledFailed,  ///< failed entry with matching hashes — terminal this run
  kSettledBlocked, ///< blocked line with matching params_hash already recorded
};

/// Everything a worker derives from one manifest read, per job in
/// declaration order. Exposed for tests: the derivation is pure.
struct SpoolView {
  std::vector<JobState> states;
  std::vector<std::string> params_hash;  ///< always computed
  std::vector<std::string> inputs_hash;  ///< only when deps settled-ok
  /// Dependency artifacts (in `after` order) for ready jobs, straight from
  /// the dependencies' settled manifest entries.
  std::vector<JobRunner::Inputs> inputs;
  /// True when no job is waiting, ready, or blocked-without-line — i.e.
  /// every worker can exit.
  bool all_settled = false;
  std::size_t settled_ok = 0;
  std::size_t settled_failed = 0;
  std::size_t settled_blocked = 0;
};

/// Derive per-job states from a manifest snapshot. Pure function of
/// (campaign, entries, filesystem artifact presence); every worker
/// computes the same view from the same snapshot.
SpoolView derive_spool_view(const Campaign& campaign,
                            const std::vector<ManifestEntry>& entries);

struct SpoolOptions {
  /// Worker name recorded in claim files and logs; default "w<pid>".
  std::string worker;
  /// Claim lease in seconds: a claim untouched for longer is presumed
  /// dead and may be stolen. The heartbeat refreshes at lease/4. Must be
  /// finite and > 0 (run_worker throws std::invalid_argument otherwise).
  double lease_s = 30.0;
  /// Idle poll interval while waiting for other workers' jobs to settle.
  int poll_ms = 200;
  /// Pool handed to executors for nested parallelism (null = sequential).
  util::ThreadPool* pool = nullptr;
};

struct WorkerReport {
  std::string worker;
  std::string manifest;
  std::size_t executed = 0;   ///< jobs this worker ran to completion
  std::size_t failed = 0;     ///< jobs this worker ran that failed
  std::size_t blocked = 0;    ///< blocked lines this worker recorded
  std::size_t reclaimed = 0;  ///< stale claims this worker broke
  /// Final whole-campaign tallies (all workers' work combined).
  std::size_t settled_ok = 0;
  std::size_t settled_failed = 0;
  std::size_t settled_blocked = 0;

  /// Whole-campaign success: every job settled ok.
  bool ok() const noexcept {
    return settled_failed == 0 && settled_blocked == 0;
  }
};

/// Run one worker until every job in the campaign is settled (by this
/// worker or any other). Safe to run any number of workers concurrently
/// on the same out_dir, to kill any of them at any time, and to restart
/// them later: state lives entirely in the manifest + claims directory.
/// Throws std::runtime_error for campaign-level problems (unknown kind,
/// unwritable out_dir); job failures surface in the report.
WorkerReport run_worker(const Campaign& campaign, const JobRegistry& registry,
                        const SpoolOptions& options = {});

}  // namespace netadv::exp
