#include "exp/scheduler.hpp"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <sstream>
#include <stdexcept>

#include "util/config.hpp"
#include "util/hash.hpp"
#include "util/log.hpp"

namespace netadv::exp {

namespace {

bool file_exists(const std::string& path) {
  std::error_code ec;
  return std::filesystem::exists(path, ec) && !ec;
}

/// The reuse test minus the inputs hash: `entry` settled (completed or
/// skipped-cached) for (campaign, job) under `params_hash`, and every
/// artifact it names still exists. find_reusable_entry adds the inputs-hash
/// match; format_plan cannot know the inputs before the run, so it stops here.
bool settled_with_artifacts(const ManifestEntry& entry,
                            const std::string& campaign,
                            const std::string& job,
                            const std::string& params_hash) {
  if (entry.campaign != campaign || entry.job != job) return false;
  if (entry.status != "completed" && entry.status != "skipped-cached") {
    return false;
  }
  if (entry.params_hash != params_hash) return false;
  return std::all_of(entry.artifacts.begin(), entry.artifacts.end(),
                     [](const std::string& path) { return file_exists(path); });
}

double seconds_since(
    const std::chrono::steady_clock::time_point& start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace

std::string JobContext::artifact(const std::string& suffix) const {
  return out_dir + "/" + job->id + suffix;
}

const std::vector<std::string>& JobContext::artifacts_of(
    const std::string& id) const {
  for (const auto& [dep, artifacts] : inputs) {
    if (dep == id) return artifacts;
  }
  throw std::runtime_error{"job '" + job->id + "': '" + id +
                           "' is not one of its dependencies"};
}

std::string JobContext::input_ending_with(const std::string& id,
                                          const std::string& suffix) const {
  const std::vector<std::string>& artifacts = artifacts_of(id);
  const std::string* found = nullptr;
  for (const auto& path : artifacts) {
    if (path.size() >= suffix.size() &&
        path.compare(path.size() - suffix.size(), suffix.size(), suffix) == 0) {
      if (found != nullptr) {
        throw std::runtime_error{"job '" + job->id + "': dependency '" + id +
                                 "' has multiple artifacts ending with " +
                                 suffix};
      }
      found = &path;
    }
  }
  if (found == nullptr) {
    throw std::runtime_error{"job '" + job->id + "': dependency '" + id +
                             "' has no artifact ending with " + suffix};
  }
  return *found;
}

void JobRegistry::add(const std::string& kind, JobExecutor executor) {
  add(kind, "", std::move(executor));
}

void JobRegistry::add(const std::string& kind, std::string description,
                      JobExecutor executor) {
  executors_[kind] = {std::move(description), std::move(executor)};
}

const JobExecutor* JobRegistry::find(const std::string& kind) const noexcept {
  const auto it = executors_.find(kind);
  return it == executors_.end() ? nullptr : &it->second.executor;
}

std::vector<std::pair<std::string, std::string>> JobRegistry::kinds() const {
  std::vector<std::pair<std::string, std::string>> out;
  out.reserve(executors_.size());
  for (const auto& [kind, entry] : executors_) {
    out.emplace_back(kind, entry.description);
  }
  return out;
}

std::string JobRegistry::names(const std::string& separator) const {
  std::string joined;
  for (const auto& [kind, entry] : executors_) {
    if (!joined.empty()) joined += separator;
    joined += kind;
  }
  return joined;
}

const JobOutcome& CampaignReport::outcome_of(const std::string& id) const {
  for (const auto& outcome : outcomes) {
    if (outcome.id == id) return outcome;
  }
  throw std::runtime_error{"campaign report has no job '" + id + "'"};
}

void validate_job_kinds(const Campaign& campaign,
                        const JobRegistry& registry) {
  for (const auto& job : campaign.jobs) {
    if (registry.find(job.kind) == nullptr) {
      throw std::runtime_error{"campaign '" + campaign.name +
                               "': no executor registered for kind '" +
                               job.kind + "' (job '" + job.id + "'; have " +
                               registry.names() + ")"};
    }
  }
}

std::string job_params_hex(const Campaign& campaign, const JobSpec& job,
                           std::uint64_t resolved_seed) {
  return util::hash_hex(job_params_hash(campaign, job, resolved_seed));
}

std::string inputs_hash_hex(const std::vector<std::string>& files) {
  return util::hash_hex(hash_input_artifacts(files));
}

const ManifestEntry* find_reusable_entry(
    const std::vector<ManifestEntry>& prior, const std::string& campaign,
    const std::string& job, const std::string& params_hash,
    const std::string& inputs_hash) {
  for (const auto& cached : prior) {
    if (cached.inputs_hash == inputs_hash &&
        settled_with_artifacts(cached, campaign, job, params_hash)) {
      return &cached;
    }
  }
  return nullptr;
}

JobRunner::JobRunner(const Campaign& campaign, const JobRegistry& registry,
                     ManifestWriter& manifest, util::ThreadPool* pool)
    : campaign_(campaign),
      registry_(registry),
      manifest_(manifest),
      pool_(pool),
      seeds_(resolve_job_seeds(campaign)),
      threads_(pool != nullptr ? pool->thread_count() : 1) {}

ManifestEntry JobRunner::base_entry(std::size_t j) const {
  ManifestEntry entry;
  entry.campaign = campaign_.name;
  entry.job = campaign_.jobs[j].id;
  entry.kind = campaign_.jobs[j].kind;
  entry.threads = threads_;
  entry.scale = util::bench_scale();
  return entry;
}

JobOutcome JobRunner::block(std::size_t j) {
  const JobSpec& job = campaign_.jobs[j];
  JobOutcome outcome;
  outcome.id = job.id;
  outcome.status = "blocked";
  ManifestEntry entry = base_entry(j);
  entry.status = outcome.status;
  // Blocked entries carry the params hash (inputs are undefined — a dep
  // failed) so spool workers can record "blocked under this config"
  // exactly once and recognise it on re-derivation.
  entry.params_hash = job_params_hex(campaign_, job, seeds_[j]);
  manifest_.append(entry);
  util::log_warn("campaign %s: %s blocked by a failed dependency",
                 campaign_.name.c_str(), job.id.c_str());
  return outcome;
}

JobOutcome JobRunner::run(std::size_t j, const Inputs& inputs,
                          const std::vector<ManifestEntry>& prior) {
  const JobSpec& job = campaign_.jobs[j];
  JobOutcome outcome;
  outcome.id = job.id;

  JobContext ctx;
  ctx.campaign = &campaign_;
  ctx.job = &job;
  ctx.out_dir = campaign_.out_dir;
  ctx.seed = seeds_[j];
  ctx.pool = pool_;
  ctx.inputs = inputs;

  ManifestEntry entry = base_entry(j);
  entry.params_hash = job_params_hex(campaign_, job, ctx.seed);
  std::vector<std::string> input_files;
  for (const auto& [dep, artifacts] : ctx.inputs) {
    input_files.insert(input_files.end(), artifacts.begin(), artifacts.end());
  }
  entry.inputs_hash = inputs_hash_hex(input_files);

  // Resume: a completed prior entry with identical provenance and
  // still-present artifacts is reused, not re-run.
  if (const ManifestEntry* cached =
          find_reusable_entry(prior, campaign_.name, job.id,
                              entry.params_hash, entry.inputs_hash)) {
    outcome.status = "skipped-cached";
    outcome.result.artifacts = cached->artifacts;
    entry.status = outcome.status;
    entry.artifacts = cached->artifacts;
    manifest_.append(entry);
    util::log_info("campaign %s: %s skipped (cached, params %s)",
                   campaign_.name.c_str(), job.id.c_str(),
                   entry.params_hash.c_str());
    return outcome;
  }

  const JobExecutor* executor = registry_.find(job.kind);
  if (executor == nullptr) {
    throw std::runtime_error{"campaign '" + campaign_.name +
                             "': no executor registered for kind '" +
                             job.kind + "' (run validate_job_kinds first)"};
  }
  const auto start = std::chrono::steady_clock::now();
  try {
    outcome.result = (*executor)(ctx);
    outcome.status = "completed";
  } catch (const std::exception& e) {
    outcome.status = "failed";
    outcome.error = e.what();
  }
  outcome.seconds = seconds_since(start);
  entry.status = outcome.status;
  entry.seconds = outcome.seconds;
  entry.artifacts = outcome.result.artifacts;
  manifest_.append(entry);
  if (outcome.status == "failed") {
    util::log_error("campaign %s: %s FAILED after %.1fs: %s",
                    campaign_.name.c_str(), job.id.c_str(), outcome.seconds,
                    outcome.error.c_str());
  } else {
    util::log_info("campaign %s: %s completed in %.1fs%s%s",
                   campaign_.name.c_str(), job.id.c_str(), outcome.seconds,
                   outcome.result.note.empty() ? "" : " — ",
                   outcome.result.note.c_str());
  }
  return outcome;
}

CampaignReport run_campaign(const Campaign& campaign,
                            const JobRegistry& registry,
                            const SchedulerOptions& options) {
  const std::vector<std::vector<std::size_t>> waves =
      topological_waves(campaign);
  validate_job_kinds(campaign, registry);

  std::error_code ec;
  std::filesystem::create_directories(campaign.out_dir, ec);
  if (ec) {
    throw std::runtime_error{"campaign '" + campaign.name +
                             "': cannot create out_dir '" + campaign.out_dir +
                             "': " + ec.message()};
  }

  const std::vector<ManifestEntry> prior =
      options.resume ? read_manifest(manifest_path(campaign.out_dir))
                     : std::vector<ManifestEntry>{};
  ManifestWriter manifest{manifest_path(campaign.out_dir)};
  JobRunner runner{campaign, registry, manifest, options.pool};

  CampaignReport report;
  report.manifest = manifest.path();
  report.outcomes.resize(campaign.jobs.size());

  const auto run_job = [&](std::size_t j) {
    const JobSpec& job = campaign.jobs[j];
    // Dependencies settled in earlier waves; any unsatisfied one blocks us.
    JobRunner::Inputs inputs;
    bool deps_ok = true;
    for (const auto& dep : job.after) {
      const JobOutcome& dep_outcome =
          report.outcomes[campaign.job_index(dep)];
      if (!dep_outcome.satisfied()) {
        deps_ok = false;
        break;
      }
      inputs.emplace_back(dep, dep_outcome.result.artifacts);
    }
    report.outcomes[j] =
        deps_ok ? runner.run(j, inputs, prior) : runner.block(j);
  };

  for (const auto& wave : waves) {
    util::parallel_for(options.pool, wave.size(),
                       [&](std::size_t i) { run_job(wave[i]); });
  }

  for (const auto& outcome : report.outcomes) {
    if (outcome.status == "completed") ++report.completed;
    else if (outcome.status == "skipped-cached") ++report.skipped;
    else if (outcome.status == "failed") ++report.failed;
    else ++report.blocked;
  }
  util::log_info(
      "campaign %s: %zu completed, %zu cached, %zu failed, %zu blocked "
      "(manifest: %s)",
      campaign.name.c_str(), report.completed, report.skipped, report.failed,
      report.blocked, report.manifest.c_str());
  return report;
}

std::string format_plan(const Campaign& campaign, bool resume) {
  const std::vector<std::vector<std::size_t>> waves =
      topological_waves(campaign);
  const std::vector<std::uint64_t> seeds = resolve_job_seeds(campaign);
  const std::vector<ManifestEntry> prior =
      resume ? read_manifest(manifest_path(campaign.out_dir))
             : std::vector<ManifestEntry>{};

  std::ostringstream out;
  out << "campaign " << campaign.name << " (seed " << campaign.seed << ", "
      << campaign.jobs.size() << " jobs, " << waves.size()
      << " waves, out_dir " << campaign.out_dir << ")\n";
  for (std::size_t w = 0; w < waves.size(); ++w) {
    out << "wave " << w + 1 << ":\n";
    for (const std::size_t j : waves[w]) {
      const JobSpec& job = campaign.jobs[j];
      out << "  " << job.id << "  [" << job.kind << ", seed " << seeds[j];
      if (!job.after.empty()) {
        out << ", after";
        for (const auto& dep : job.after) out << " " << dep;
      }
      if (resume) {
        const std::string params_hash =
            util::hash_hex(job_params_hash(campaign, job, seeds[j]));
        const bool cached = std::any_of(
            prior.begin(), prior.end(), [&](const ManifestEntry& entry) {
              return settled_with_artifacts(entry, campaign.name, job.id,
                                            params_hash);
            });
        out << (cached ? ", cached if inputs match" : ", will run");
      }
      out << "]\n";
    }
  }
  return out.str();
}

}  // namespace netadv::exp
