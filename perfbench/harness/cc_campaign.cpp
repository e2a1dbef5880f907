// cc_campaign — one campaign through exp::run_campaign: a cc attack grid
// over {bbr, cubic, copa, vivace} x ppo (train-adversary -> record-traces),
// a fairness grid over two two-flow mixes, and replay jobs of the senders
// and mixes over the recorded corpora. A second run_campaign with
// resume = true over the same out_dir must then reuse every job.
#include <algorithm>
#include <cmath>
#include <filesystem>
#include <optional>
#include <set>

#include "exp/campaign.hpp"
#include "exp/jobs.hpp"
#include "probes.hpp"
#include "util/csv.hpp"
#include "util/spec.hpp"
#include "util/thread_pool.hpp"
#include "workload.hpp"

namespace perfbench {

using namespace netadv;

namespace {

struct CcSize {
  std::size_t attack_steps;
  std::size_t attack_count;
  std::size_t fairness_steps;
  std::size_t fairness_count;
  double duration_s;
};

constexpr CcSize kFull{4096, 8, 4096, 6, 6.0};
constexpr CcSize kTiny{256, 1, 256, 1, 1.5};

const char* const kSenders[] = {"bbr", "cubic", "copa", "vivace"};
const char* const kMixes[] = {"bbr+cubic", "copa+vivace"};
// Replayed a second time, so that replays of these senders (3-5 ms a job,
// the fastest cluster) are over half the jobs and the median job sits
// inside that cluster instead of between it and the 8-17 ms record jobs.
const char* const kFastSenders[] = {"cubic", "copa", "vivace"};

std::string campaign_spec(std::uint64_t seed, const CcSize& size) {
  std::string senders;
  std::string attack_sets;
  for (const char* s : kSenders) {
    senders += std::string{senders.empty() ? "" : ", "} + s;
    attack_sets += std::string{attack_sets.empty() ? "" : ", "} + "attack-" +
                   s + "-ppo";
  }
  std::string fast_senders;
  for (const char* s : kFastSenders) {
    fast_senders += std::string{fast_senders.empty() ? "" : ", "} + s;
  }
  std::string mixes;
  std::string fairness_sets;
  for (const char* mix : kMixes) {
    mixes += std::string{mixes.empty() ? "" : ", "} + mix;
    fairness_sets += std::string{fairness_sets.empty() ? "" : ", "} + "fair-" +
                     mix + "-fairness";
  }
  const std::string duration = std::to_string(size.duration_s);
  return "[campaign]\nname = perfbench-cc\nseed = " + std::to_string(seed) +
         "\n\n[job attack]\nkind = grid\ndomain = cc\nprotocols = " + senders +
         "\nadversaries = ppo\nsteps = " + std::to_string(size.attack_steps) +
         "\ncount = " + std::to_string(size.attack_count) +
         "\nduration = " + duration +
         "\n\n[job fair]\nkind = grid\ndomain = cc\nflow_mixes = " + mixes +
         "\nadversaries = fairness\nsteps = " +
         std::to_string(size.fairness_steps) +
         "\ncount = " + std::to_string(size.fairness_count) +
         "\nduration = " + duration +
         "\n\n[job replay]\nkind = grid\ndomain = cc\nprotocols = " + senders +
         "\ntrace_sets = " + attack_sets +
         "\n\n[job replay-again]\nkind = grid\ndomain = cc\nprotocols = " +
         fast_senders + "\ntrace_sets = " + attack_sets +
         "\n\n[job fair-replay]\nkind = grid\ndomain = cc\nflow_mixes = " +
         mixes + "\ntrace_sets = " + fairness_sets + "\n";
}

bool in_range(double value, double lo, double hi) {
  return std::isfinite(value) && value >= lo && value <= hi;
}

/// Range checks over a job's CSV artifacts: every utilization column in
/// [0, 1], every Jain index in [1/n, 1] for its n flows.
bool artifacts_in_range(const std::vector<std::string>& artifacts,
                        std::uint64_t& digest) {
  bool ok = true;
  for (const std::string& path : artifacts) {
    digest = util::fnv1a64_accumulate(
        digest, util::hash_hex(util::fnv1a64_file(path)));
    if (path.size() < 4 || path.compare(path.size() - 4, 4, ".csv") != 0) {
      continue;
    }
    const util::CsvTable table = util::read_csv(path);
    std::size_t flows = 0;
    for (const std::string& h : table.header) {
      if (h.rfind("flow", 0) == 0 && h.size() > 5 &&
          h.compare(h.size() - 5, 5, "_mbps") == 0) {
        ++flows;
      }
    }
    for (std::size_t c = 0; c < table.header.size(); ++c) {
      const std::string& h = table.header[c];
      const bool utilization = h.find("utilization") != std::string::npos;
      const bool jain = h == "jain";
      if (!utilization && !jain) continue;
      const double lo =
          jain ? 1.0 / static_cast<double>(std::max<std::size_t>(flows, 1)) : 0.0;
      for (const auto& row : table.rows) {
        if (!in_range(row[c], lo - 1e-12, 1.0 + 1e-12)) ok = false;
      }
    }
  }
  return ok;
}

class CcCampaign final : public Workload {
 public:
  explicit CcCampaign(const Options& options)
      : options_(options), size_(options.tiny ? kTiny : kFull) {}

  void setup() override {
    campaign_.emplace(exp::parse_campaign(util::parse_spec_text(
        campaign_spec(options_.seed, size_), "perfbench-cc.campaign")));
    registry_.emplace(probed_jobs(exp::builtin_jobs()));
    exp::validate_job_kinds(*campaign_, *registry_);
  }

  RoundResult round(bool traced) override;

 private:
  const Options options_;
  const CcSize size_;
  std::optional<exp::Campaign> campaign_;
  std::optional<exp::JobRegistry> registry_;
};

RoundResult CcCampaign::round(bool traced) {
  exp::Campaign campaign = *campaign_;
  campaign.out_dir = options_.work_dir + "/cc-round";
  std::filesystem::remove_all(campaign.out_dir);
  exp::SchedulerOptions options;
  options.pool = &util::ThreadPool::global();
  RoundResult r;
  reset_lanes();

  const TimedSpan timed;
  const Clock::time_point start = Clock::now();
  const exp::CampaignReport first = exp::run_campaign(campaign, *registry_, options);
  const double first_s = seconds_since(start);
  const Lane jobs = take_lanes();
  options.resume = true;
  const Clock::time_point resume_start = Clock::now();
  const exp::CampaignReport resumed =
      exp::run_campaign(campaign, *registry_, options);
  const double resume_s = seconds_since(resume_start);
  timed.stop(r);
  double job_wall = 0.0;
  for (double s : jobs.latency_s) job_wall += s;

  // Output checks, one operation per job: it completed, the resume pass
  // reused it, and its utilization / Jain columns are in range.
  const std::size_t n = campaign.jobs.size();
  std::set<std::size_t> failed;
  if (!first.ok() || first.outcomes.size() != n) {
    for (std::size_t j = 0; j < n; ++j) failed.insert(j);
  }
  for (std::size_t j = 0; j < first.outcomes.size() && j < n; ++j) {
    const exp::JobOutcome& done = first.outcomes[j];
    if (done.status != "completed" ||
        !artifacts_in_range(done.result.artifacts, r.digest)) {
      failed.insert(j);
    }
    if (j >= resumed.outcomes.size() ||
        resumed.outcomes[j].status != "skipped-cached") {
      failed.insert(j);
    }
  }
  r.attempted = n;
  r.failed = failed.size();
  r.decisions = n;
  r.latency_s = jobs.latency_s;

  if (traced) {
    for (const auto& [key, seconds] : jobs.job_s) {
      r.layers["exp.job." + key + "_s"] += seconds;
    }
    r.layers["exp.overhead_s"] = first_s - job_wall;
    r.layers["exp.resume_s"] = resume_s;
    r.counts["exp.jobs_completed"] = static_cast<double>(first.completed);
    r.counts["exp.jobs_cached"] = static_cast<double>(resumed.skipped);
  }
  std::filesystem::remove_all(campaign.out_dir);
  return r;
}

}  // namespace

std::unique_ptr<Workload> make_cc_campaign(const Options& options) {
  return std::make_unique<CcCampaign>(options);
}

}  // namespace perfbench
