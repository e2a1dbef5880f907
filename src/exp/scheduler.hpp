// The campaign DAG scheduler.
//
// Jobs are topologically ordered into waves (campaign.hpp) and each wave's
// jobs run concurrently on a util::ThreadPool — per-wave fan-out with the
// same determinism contract as every other parallel region in netadv: job
// seeds are resolved on the caller before dispatch (Rng::fork_streams in
// declaration order), every job writes only its own artifacts and outcome
// slot, so campaign artifacts are bit-identical at any thread count. Only
// the manifest's line order (completion order) and wall-clock columns vary.
//
// Resumability: before running a job the scheduler fingerprints its params
// (job_params_hash) and its dependencies' artifact files
// (hash_input_artifacts). Under --resume, a completed manifest entry with
// matching fingerprints whose artifacts still exist short-circuits the job
// to `skipped-cached` — and because downstream inputs_hash values are
// recomputed from the actual files, a re-run job with changed outputs
// automatically invalidates its dependents.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "exp/campaign.hpp"
#include "exp/manifest.hpp"
#include "util/thread_pool.hpp"

namespace netadv::exp {

/// What a job executor hands back: the artifact files it wrote (absolute or
/// out_dir-relative paths as given) and an optional one-line summary.
struct JobResult {
  std::vector<std::string> artifacts;
  std::string note;
};

/// Everything an executor may depend on. Executors must be pure functions of
/// this context (plus their input artifacts) for the determinism and resume
/// contracts to hold.
struct JobContext {
  const Campaign* campaign = nullptr;
  const JobSpec* job = nullptr;
  std::string out_dir;
  std::uint64_t seed = 0;  ///< resolved per-job seed
  /// Artifacts of each dependency, in `after` order.
  std::vector<std::pair<std::string, std::vector<std::string>>> inputs;
  /// Pool the wave runs on (nested parallel_for degrades to inline — safe to
  /// pass straight into train/record APIs).
  util::ThreadPool* pool = nullptr;

  /// `<out_dir>/<job id><suffix>` — the canonical artifact naming.
  std::string artifact(const std::string& suffix) const;
  /// Artifacts of dependency `id`; throws if `id` is not a dependency.
  const std::vector<std::string>& artifacts_of(const std::string& id) const;
  /// The single artifact of dependency `id` whose name ends with `suffix`;
  /// throws if absent or ambiguous.
  std::string input_ending_with(const std::string& id,
                                const std::string& suffix) const;
};

using JobExecutor = std::function<JobResult(const JobContext&)>;

/// kind -> executor + one-line description (self-describing, like the
/// core:: target registries — `netadv_cli list jobs` prints it). Start from
/// builtin_jobs() (jobs.hpp) and add campaign-specific kinds (bench_fig4
/// registers its cell executor).
class JobRegistry {
 public:
  void add(const std::string& kind, JobExecutor executor);
  void add(const std::string& kind, std::string description,
           JobExecutor executor);
  const JobExecutor* find(const std::string& kind) const noexcept;
  /// (kind, description) pairs, sorted by kind.
  std::vector<std::pair<std::string, std::string>> kinds() const;
  /// Every registered kind joined by `separator`, for error messages.
  std::string names(const std::string& separator = " | ") const;

 private:
  struct Entry {
    std::string description;
    JobExecutor executor;
  };
  std::map<std::string, Entry> executors_;
};

struct SchedulerOptions {
  bool resume = false;
  /// Null runs jobs sequentially in wave order.
  util::ThreadPool* pool = nullptr;
};

/// Throw (campaign-level) unless every job's kind has a registered
/// executor. Both execution front ends call this before touching the
/// filesystem, so a typo'd kind never creates an out_dir.
void validate_job_kinds(const Campaign& campaign, const JobRegistry& registry);

/// util::hash_hex(job_params_hash(...)) — the manifest's params_hash column.
std::string job_params_hex(const Campaign& campaign, const JobSpec& job,
                           std::uint64_t resolved_seed);

/// util::hash_hex(hash_input_artifacts(files)) — the manifest's inputs_hash
/// column, over the flattened dependency artifact list in `after` order.
std::string inputs_hash_hex(const std::vector<std::string>& files);

/// The first prior completed/skipped-cached entry for (campaign, job) whose
/// params_hash and inputs_hash match and whose artifacts all still exist —
/// the single reuse test behind --resume and the spool worker's settled
/// check. format_plan's "cached" annotation runs the same predicate minus
/// the inputs-hash match (inputs are unknown before the run). Returns
/// nullptr when the job must (re-)run.
const ManifestEntry* find_reusable_entry(
    const std::vector<ManifestEntry>& prior, const std::string& campaign,
    const std::string& job, const std::string& params_hash,
    const std::string& inputs_hash);

struct JobOutcome {
  std::string id;
  std::string status;  ///< completed | skipped-cached | failed | blocked
  double seconds = 0.0;
  JobResult result;    ///< artifacts (cached ones for skipped-cached)
  std::string error;   ///< failure reason when status == failed

  bool satisfied() const noexcept {
    return status == "completed" || status == "skipped-cached";
  }
};

struct CampaignReport {
  std::vector<JobOutcome> outcomes;  ///< job declaration order
  std::string manifest;              ///< manifest file path
  std::size_t completed = 0;
  std::size_t skipped = 0;
  std::size_t failed = 0;
  std::size_t blocked = 0;

  bool ok() const noexcept { return failed == 0 && blocked == 0; }
  const JobOutcome& outcome_of(const std::string& id) const;
};

/// The single-job execution path shared by run_campaign's wave loop and
/// the spool worker (spool.hpp): given a job index and its dependencies'
/// artifact lists, fingerprint, (maybe) reuse a prior manifest entry,
/// execute, and append the outcome's manifest line. Keeping both front
/// ends on this one path is what makes worker-count identity a corollary
/// of thread-count identity: only *which process* calls run() varies, not
/// what a job sees.
class JobRunner {
 public:
  /// Dependency artifacts in `after` order: (dep id, its artifact paths).
  using Inputs = std::vector<std::pair<std::string, std::vector<std::string>>>;

  /// Resolves every job seed up front (deterministically — see
  /// resolve_job_seeds). `pool` is handed to executors for nested
  /// parallelism; null runs them single-threaded.
  JobRunner(const Campaign& campaign, const JobRegistry& registry,
            ManifestWriter& manifest, util::ThreadPool* pool = nullptr);

  const std::vector<std::uint64_t>& seeds() const noexcept { return seeds_; }

  /// Execute job `j` — or short-circuit it to skipped-cached when a prior
  /// entry in `prior` passes find_reusable_entry (pass an empty vector to
  /// force execution). Appends the manifest line; never throws for
  /// job-level failures (they come back as a failed outcome).
  JobOutcome run(std::size_t j, const Inputs& inputs,
                 const std::vector<ManifestEntry>& prior);

  /// Record job `j` as blocked (a dependency failed) without executing it.
  JobOutcome block(std::size_t j);

 private:
  ManifestEntry base_entry(std::size_t j) const;

  const Campaign& campaign_;
  const JobRegistry& registry_;
  ManifestWriter& manifest_;
  util::ThreadPool* pool_;
  std::vector<std::uint64_t> seeds_;
  std::size_t threads_;
};

/// Execute the campaign. Creates out_dir, writes the manifest as jobs
/// settle, and never throws for job-level failures (they surface as
/// failed/blocked outcomes); throws std::runtime_error for campaign-level
/// problems (unknown kind, unwritable out_dir, cycles).
CampaignReport run_campaign(const Campaign& campaign,
                            const JobRegistry& registry,
                            const SchedulerOptions& options = {});

/// Human-readable execution plan (the --dry-run output): waves, job kinds,
/// resolved seeds, dependencies — plus, with `resume`, which jobs currently
/// hold a reusable manifest entry. Touches no artifacts.
std::string format_plan(const Campaign& campaign, bool resume = false);

}  // namespace netadv::exp
