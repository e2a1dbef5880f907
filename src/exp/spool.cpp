#include "exp/spool.hpp"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <filesystem>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "util/fsatomic.hpp"
#include "util/log.hpp"

namespace netadv::exp {

namespace {

/// Unique sibling name for breaking a stale claim: rename is atomic, so of
/// N workers racing to break the same claim exactly one rename succeeds.
std::string steal_target(const std::string& claim) {
  static std::atomic<unsigned> seq{0};
  return claim + ".stale." + std::to_string(::getpid()) + "." +
         std::to_string(seq.fetch_add(1, std::memory_order_relaxed));
}

/// Refreshes a claim file's mtime every lease/4 seconds until destroyed,
/// so a *live* worker's claim never looks stale no matter how long its
/// job runs. kill -9 stops the refresh and the claim ages out. The period
/// is clamped to [1 ms, 1 h] before the integer conversion, so no lease
/// overflows it; an hourly refresh still keeps any longer lease fresh.
class ClaimHeartbeat {
 public:
  ClaimHeartbeat(std::string path, std::string content, double lease_s)
      : path_(std::move(path)),
        content_(std::move(content)),
        interval_(static_cast<std::int64_t>(
            std::clamp(lease_s * 250.0, 1.0, 3.6e6))) {
    thread_ = std::thread([this] { loop(); });
  }

  ~ClaimHeartbeat() {
    {
      const std::lock_guard<std::mutex> lock{mutex_};
      stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }

 private:
  void loop() {
    std::unique_lock<std::mutex> lock{mutex_};
    while (!cv_.wait_for(lock, interval_, [this] { return stop_; })) {
      lock.unlock();
      try {
        util::replace_file(path_, content_);
      } catch (const std::exception&) {
        // Transient refresh failure only risks a (harmless) steal.
      }
      lock.lock();
    }
  }

  std::string path_;
  std::string content_;
  std::chrono::milliseconds interval_;
  std::thread thread_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;
};

std::vector<std::size_t> topo_order(const Campaign& campaign) {
  std::vector<std::size_t> order;
  order.reserve(campaign.jobs.size());
  for (const auto& wave : topological_waves(campaign)) {
    order.insert(order.end(), wave.begin(), wave.end());
  }
  return order;
}

}  // namespace

std::string spool_dir(const std::string& out_dir) {
  return out_dir + "/spool";
}

std::string claim_path(const std::string& out_dir, const std::string& job) {
  return spool_dir(out_dir) + "/claims/" + job + ".claim";
}

SpoolView derive_spool_view(const Campaign& campaign,
                            const std::vector<ManifestEntry>& entries) {
  const std::size_t n = campaign.jobs.size();
  const std::vector<std::uint64_t> seeds = resolve_job_seeds(campaign);

  SpoolView view;
  view.states.assign(n, JobState::kWaiting);
  view.params_hash.resize(n);
  view.inputs_hash.resize(n);
  view.inputs.resize(n);
  // Artifacts of settled-ok jobs, consumed by their dependents' inputs.
  std::vector<std::vector<std::string>> artifacts(n);

  for (const std::size_t j : topo_order(campaign)) {
    const JobSpec& job = campaign.jobs[j];
    view.params_hash[j] = job_params_hex(campaign, job, seeds[j]);

    // Dependency gate: settled-failed (or blocked) deps block us; any
    // other unsettled dep keeps us waiting.
    bool deps_ok = true;
    bool dep_failed = false;
    JobRunner::Inputs inputs;
    for (const auto& dep : job.after) {
      const std::size_t d = campaign.job_index(dep);
      const JobState ds = view.states[d];
      if (ds == JobState::kSettledFailed || ds == JobState::kBlocked ||
          ds == JobState::kSettledBlocked) {
        dep_failed = true;
        break;
      }
      if (ds != JobState::kSettledOk) {
        deps_ok = false;
        break;
      }
      inputs.emplace_back(dep, artifacts[d]);
    }
    if (dep_failed) {
      // Blocked is only *settled* once its manifest line exists (written
      // exactly once, under a claim).
      bool recorded = false;
      for (const auto& entry : entries) {
        if (entry.campaign == campaign.name && entry.job == job.id &&
            entry.status == "blocked" &&
            entry.params_hash == view.params_hash[j]) {
          recorded = true;
          break;
        }
      }
      view.states[j] =
          recorded ? JobState::kSettledBlocked : JobState::kBlocked;
      continue;
    }
    if (!deps_ok) continue;  // kWaiting

    // All deps settled-ok: the inputs hash is now well-defined (over the
    // dependencies' actual artifact bytes).
    std::vector<std::string> input_files;
    for (const auto& [dep, dep_artifacts] : inputs) {
      input_files.insert(input_files.end(), dep_artifacts.begin(),
                         dep_artifacts.end());
    }
    try {
      view.inputs_hash[j] = inputs_hash_hex(input_files);
    } catch (const std::exception&) {
      continue;  // an input vanished mid-derivation: stay waiting, re-derive
    }

    if (const ManifestEntry* cached =
            find_reusable_entry(entries, campaign.name, job.id,
                                view.params_hash[j], view.inputs_hash[j])) {
      view.states[j] = JobState::kSettledOk;
      artifacts[j] = cached->artifacts;
      continue;
    }
    // A failed entry with the *same* provenance is terminal for this run:
    // re-running the same pure function on the same inputs fails the same
    // way, and N workers must not take turns retrying it. Changing params
    // or inputs changes the hashes and re-enables the job.
    bool failed_match = false;
    for (const auto& entry : entries) {
      if (entry.campaign == campaign.name && entry.job == job.id &&
          entry.status == "failed" &&
          entry.params_hash == view.params_hash[j] &&
          entry.inputs_hash == view.inputs_hash[j]) {
        failed_match = true;
        break;
      }
    }
    if (failed_match) {
      view.states[j] = JobState::kSettledFailed;
      continue;
    }
    view.states[j] = JobState::kReady;
    view.inputs[j] = std::move(inputs);
  }

  view.all_settled = true;
  for (const JobState s : view.states) {
    switch (s) {
      case JobState::kSettledOk: ++view.settled_ok; break;
      case JobState::kSettledFailed: ++view.settled_failed; break;
      case JobState::kSettledBlocked: ++view.settled_blocked; break;
      default: view.all_settled = false; break;
    }
  }
  return view;
}

WorkerReport run_worker(const Campaign& campaign, const JobRegistry& registry,
                        const SpoolOptions& options) {
  // A NaN lease fails every staleness comparison, so a dead worker's claim
  // would never be broken and the fleet would wait forever.
  if (!std::isfinite(options.lease_s) || options.lease_s <= 0.0) {
    throw std::invalid_argument{"worker: lease must be a finite number of "
                                "seconds > 0, got " +
                                std::to_string(options.lease_s)};
  }
  validate_job_kinds(campaign, registry);

  std::error_code ec;
  std::filesystem::create_directories(spool_dir(campaign.out_dir) + "/claims",
                                      ec);
  if (ec) {
    throw std::runtime_error{"worker: cannot create spool dir under '" +
                             campaign.out_dir + "': " + ec.message()};
  }

  WorkerReport report;
  report.worker = options.worker;
  if (report.worker.empty()) {
    report.worker = "w";
    report.worker += std::to_string(::getpid());
  }
  const std::string claim_body =
      "worker=" + report.worker + " pid=" + std::to_string(::getpid()) + "\n";

  ManifestWriter manifest{manifest_path(campaign.out_dir),
                          ManifestWriter::Mode::kAppend};
  report.manifest = manifest.path();
  JobRunner runner{campaign, registry, manifest, options.pool};
  const std::vector<std::size_t> order = topo_order(campaign);

  for (;;) {
    const std::vector<ManifestEntry> entries = read_manifest(report.manifest);
    const SpoolView view = derive_spool_view(campaign, entries);
    if (view.all_settled) {
      report.settled_ok = view.settled_ok;
      report.settled_failed = view.settled_failed;
      report.settled_blocked = view.settled_blocked;
      util::log_info("worker %s: campaign %s settled (%zu ok, %zu failed, "
                     "%zu blocked); executed %zu here",
                     report.worker.c_str(), campaign.name.c_str(),
                     report.settled_ok, report.settled_failed,
                     report.settled_blocked, report.executed);
      return report;
    }

    bool progressed = false;
    for (const std::size_t j : order) {
      if (view.states[j] != JobState::kReady &&
          view.states[j] != JobState::kBlocked) {
        continue;
      }
      const std::string claim = claim_path(campaign.out_dir,
                                           campaign.jobs[j].id);

      // Claim: O_CREAT|O_EXCL admits exactly one creator. A claim older
      // than the lease has a dead owner; break it by renaming it away —
      // exactly one of the racing breakers wins the rename.
      bool claimed = util::create_file_exclusive(claim, claim_body);
      if (!claimed) {
        const auto age = util::file_age_seconds(claim);
        if (age && *age > options.lease_s) {
          const std::string stolen = steal_target(claim);
          if (util::steal_file(claim, stolen)) {
            ::unlink(stolen.c_str());
            ++report.reclaimed;
            util::log_warn("worker %s: broke stale claim on %s (age %.1fs)",
                           report.worker.c_str(),
                           campaign.jobs[j].id.c_str(), *age);
            claimed = util::create_file_exclusive(claim, claim_body);
          }
        }
      }
      if (!claimed) continue;

      // Re-derive under the claim: the job may have settled between our
      // manifest read and the claim.
      const SpoolView fresh =
          derive_spool_view(campaign, read_manifest(report.manifest));
      if (fresh.states[j] == JobState::kReady) {
        const ClaimHeartbeat heartbeat{claim, claim_body, options.lease_s};
        const JobOutcome outcome = runner.run(j, fresh.inputs[j], {});
        if (outcome.status == "failed") {
          ++report.failed;
        } else {
          ++report.executed;
        }
        progressed = true;
      } else if (fresh.states[j] == JobState::kBlocked) {
        runner.block(j);
        ++report.blocked;
        progressed = true;
      }
      // else: settled elsewhere while we claimed — nothing to record.
      ::unlink(claim.c_str());
    }

    if (!progressed) {
      std::this_thread::sleep_for(std::chrono::milliseconds(options.poll_ms));
    }
  }
}

}  // namespace netadv::exp
