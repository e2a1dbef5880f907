// perfbench_netadv — the netadv benchmark harness.
//
//   perfbench_netadv --workload fig1|serve|cc_campaign --seed N --seconds S
//                    --trace 0|1 --repo-root DIR --work-dir DIR
//                    [--tiny] [--inject-bad-decision]
//
// The harness pins every knob that changes the work (NETADV_THREADS per
// workload, NETADV_SCALE, NETADV_F32_ROLLOUT, runtime SIMD dispatch) before
// the library reads it. Set-up (input generation, table/spec loading, agent
// construction and one warm-up round) repeats through the run, taking about
// a quarter of it, and rounds of a fixed amount of work fill the rest of the
// S seconds (at least three rounds).
//
// Every time is scaled to a nominal host speed (host_speed.hpp): the
// reference work's CPU time is sampled between every two set-ups or rounds,
// and a span counts as span * kNominalReferenceS / reference, with the
// reference taken as the mean of the samples on either side. End-to-end
// figures are medians over the run: setup_s over the set-ups, wall_s and
// cpu_s over the rounds, and decision_p50_us and decision_p95_us over the
// rounds' percentiles.
// (p95, not p99: p99 did not repeat from run to run; in fig1 it sits in the
// sparse tail of slow mpc decisions.)
// With --trace 1 there is one set-up, untraced and traced rounds alternate,
// and the per-layer breakdown comes from the traced round of median wall
// time, so its layers plus unattributed_s sum to that round's wall;
// host.reference_s is the run's median reference sample, for turning scaled
// figures back into the host's own seconds.
//
// Every round must reproduce the warm-up round's output digest; a round
// that does not counts all its operations as failed. The last stdout line
// is the result: {"correct", "attempted", "failed", "metrics"}. The line
// before it records the environment (threads, SIMD backend, nproc, build).
// perfbench/run.py builds this binary and runs it.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "host_speed.hpp"
#include "ledger.hpp"
#include "rl/kernels.hpp"
#include "util/stats.hpp"
#include "util/thread_pool.hpp"
#include "workload.hpp"

namespace perfbench {

double process_cpu_s() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + 1e-6 * static_cast<double>(tv.tv_usec);
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

TimedSpan::TimedSpan() : start_(Clock::now()), cpu_start_(process_cpu_s()) {}

void TimedSpan::stop(RoundResult& result) const {
  result.wall_s = seconds_since(start_);
  result.cpu_s = process_cpu_s() - cpu_start_;
}

void hash_double(std::uint64_t& digest, double value) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g;", value);
  digest = netadv::util::fnv1a64_accumulate(digest, buf);
}

namespace {

struct WorkloadSpec {
  const char* name;
  std::size_t threads;
  std::unique_ptr<Workload> (*make)(const Options&);
};

// Thread counts are part of the workload. Every workload runs on one lane:
// the pool then runs all work inline, so the wall-clock measures the
// program and not how a shared host schedules two busy threads (at two
// lanes on a shared 4-vCPU VM, serve's rounds swung 0.36-0.79 s at a
// steady 0.62-0.70 CPU s).
constexpr WorkloadSpec kWorkloads[] = {
    {"fig1", 1, make_fig1},
    {"serve", 1, make_serve},
    {"cc_campaign", 1, make_cc_campaign},
};

struct MetricSpec {
  const char* name;
  const char* unit;
};

constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},           {"wall_s", "s"},
    {"cpu_s", "s"},             {"peak_rss_mb", "MB"},
    {"decisions_per_s", "1/s"}, {"decision_p50_us", "us"},
    {"decision_p95_us", "us"},
};

constexpr MetricSpec kPerLayer[] = {
    {"rl.update_s", "s"},
    {"rl.rollout_infer_s", "s"},
    {"rl.batch_infer_s", "s"},
    {"rl.batch_size_mean", "count"},
    {"abr.protocol.mpc.decide_s", "s"},
    {"abr.protocol.mpc_dp.decide_s", "s"},
    {"abr.protocol.pensieve.decide_s", "s"},
    {"abr.protocol.bb.decide_s", "s"},
    {"abr.sim_s", "s"},
    {"core.record.self_s", "s"},
    {"core.replay.self_s", "s"},
    {"serve.self_s", "s"},
    {"exp.job.train-adversary.cc_s", "s"},
    {"exp.job.record-traces.cc_s", "s"},
    {"exp.job.replay.cc_s", "s"},
    {"exp.job.train-adversary.fairness_s", "s"},
    {"exp.job.record-traces.fairness_s", "s"},
    {"exp.job.replay.fairness_s", "s"},
    {"exp.overhead_s", "s"},
    {"exp.resume_s", "s"},
    {"unattributed_s", "s"},
    {"trace_wall_s", "s"},
    {"host.reference_s", "s"},
    {"trace_overhead_s", "s"},
    {"util.pool.cpu_per_wall", "ratio"},
    {"failed_share", "ratio"},
    {"rl.env_steps", "count"},
    {"rl.updates", "count"},
    {"abr.protocol.mpc.decisions", "count"},
    {"abr.protocol.mpc_dp.decisions", "count"},
    {"abr.protocol.pensieve.decisions", "count"},
    {"abr.protocol.bb.decisions", "count"},
    {"core.traces_recorded", "count"},
    {"core.traces_replayed", "count"},
    {"serve.ticks", "count"},
    {"serve.decisions", "count"},
    {"exp.jobs_completed", "count"},
    {"exp.jobs_cached", "count"},
};

constexpr double kSetupShare = 0.25;
constexpr std::size_t kMinRounds = 3;
constexpr int kReferenceRepeats = 3;

double percentile_us(const std::vector<double>& latency_s, double p) {
  return latency_s.empty() ? 0.0
                           : 1e6 * netadv::util::percentile(latency_s, p);
}

double median(const std::vector<double>& values) {
  return netadv::util::percentile(values, 50);
}

double median_of(const std::vector<RoundResult>& rounds, double RoundResult::*field) {
  std::vector<double> values;
  for (const RoundResult& r : rounds) values.push_back(r.*field);
  return median(values);
}

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  Options options;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench_netadv: %s\nusage: perfbench_netadv --workload "
               "fig1|serve|cc_campaign --seed N --seconds S --trace 0|1 "
               "--repo-root DIR --work-dir DIR [--tiny] "
               "[--inject-bad-decision]\n",
               why);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
      return argv[++i];
    };
    if (flag == "--workload") {
      args.workload = value();
    } else if (flag == "--seed") {
      args.seed = std::stoull(value());
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value());
    } else if (flag == "--trace") {
      args.trace = std::stoi(value());
    } else if (flag == "--repo-root") {
      args.options.repo_root = value();
    } else if (flag == "--work-dir") {
      args.options.work_dir = value();
    } else if (flag == "--tiny") {
      args.options.tiny = true;
    } else if (flag == "--inject-bad-decision") {
      args.options.inject_bad_decision = true;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (args.trace != 0 && args.trace != 1) usage("--trace must be 0 or 1");
  if (args.seconds <= 0.0) usage("--seconds must be positive");
  if (args.options.work_dir.empty()) usage("--work-dir is required");
  args.options.seed = args.seed;
  return args;
}

/// Accumulates operations and the digest contract over a run's rounds.
struct Tally {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::uint64_t digest = 0;
  bool have_digest = false;
  std::size_t digest_mismatches = 0;

  void add(const RoundResult& r) {
    attempted += r.attempted;
    if (!have_digest) {
      digest = r.digest;
      have_digest = true;
    }
    if (r.digest != digest) {
      ++digest_mismatches;
      failed += r.attempted;
    } else {
      failed += r.failed;
    }
  }
};

/// The host's speed between two timed spans: the reference work's mean CPU
/// time over a few runs.
double sample_reference() {
  double sum = 0.0;
  for (int i = 0; i < kReferenceRepeats; ++i) sum += time_reference();
  return sum / kReferenceRepeats;
}

int run(const Args& args) {
  const WorkloadSpec* spec = nullptr;
  for (const WorkloadSpec& w : kWorkloads) {
    if (args.workload == w.name) spec = &w;
  }
  if (spec == nullptr) usage(("unknown workload '" + args.workload + "'").c_str());

  // The library reads these lazily, on first use, so pinning them here
  // fixes the work whatever the caller's environment holds.
  setenv("NETADV_THREADS", std::to_string(spec->threads).c_str(), 1);
  setenv("NETADV_SCALE", "1", 1);
  setenv("NETADV_F32_ROLLOUT", "0", 1);
  setenv("NETADV_LOG", "warn", 1);
  setenv("NETADV_OUT_DIR", args.options.work_dir.c_str(), 1);
  unsetenv("NETADV_SIMD");
  const std::size_t threads = netadv::util::ThreadPool::global().thread_count();
  const std::string build_type = PERFBENCH_BUILD_TYPE;
  const std::string sanitize = PERFBENCH_SANITIZE;
  const bool build_valid = build_type == "Release" && sanitize.empty();
  std::filesystem::create_directories(args.options.work_dir);

  Tally tally;
  std::unique_ptr<Workload> workload;
  // Scaled to the nominal host speed, one entry per set-up or round.
  std::vector<double> setup_s;
  std::vector<RoundResult> plain;
  std::vector<RoundResult> traced;
  std::vector<double> p50_us;  // per untraced round
  std::vector<double> p95_us;
  std::vector<double> traced_cpu_per_wall;  // unscaled
  std::vector<double> reference_s;          // per sample

  const Clock::time_point run_start = Clock::now();
  time_reference();  // builds the reference inputs outside any timing
  reference_s.push_back(sample_reference());
  // Times the reference work again and returns the factor that scales the
  // span since the previous sample to the nominal host.
  auto rescale = [&] {
    reference_s.push_back(sample_reference());
    const double before = reference_s[reference_s.size() - 2];
    return 2.0 * kNominalReferenceS / (before + reference_s.back());
  };
  auto scale_round = [](RoundResult& r, double scale) {
    r.wall_s *= scale;
    r.cpu_s *= scale;
    for (auto& entry : r.layers) entry.second *= scale;
  };

  // Set-ups are spread over the run: a new one starts whenever set-ups have
  // taken less than kSetupShare of the time so far, so short set-ups are
  // sampled as often as their noise needs and long ones do not crowd out
  // the rounds. With --trace 1 there is one set-up. Everything from the
  // first set-up on counts against --seconds.
  const double setup_share = args.trace == 0 ? kSetupShare : 0.0;
  double setup_total_s = 0.0;
  while (!workload || seconds_since(run_start) < args.seconds ||
         plain.size() < kMinRounds ||
         (args.trace == 1 && traced.size() < kMinRounds)) {
    if (!workload || setup_total_s < setup_share * seconds_since(run_start)) {
      workload.reset();
      const Clock::time_point setup_start = Clock::now();
      workload = spec->make(args.options);
      workload->setup();
      const RoundResult warm = workload->round(false);
      const double setup_raw = seconds_since(setup_start);
      setup_total_s += setup_raw;
      tally.add(warm);
      setup_s.push_back(setup_raw * rescale());
      std::fprintf(stderr,
                   "setup %zu: %.4f s, scaled %.4f s (warm-up round %.4f s)\n",
                   setup_s.size(), setup_raw, setup_s.back(), warm.wall_s);
      continue;
    }
    plain.push_back(workload->round(false));
    RoundResult& r = plain.back();
    tally.add(r);
    const double raw_wall = r.wall_s;
    const double scale = rescale();
    scale_round(r, scale);
    p50_us.push_back(percentile_us(r.latency_s, 50) * scale);
    p95_us.push_back(percentile_us(r.latency_s, 95) * scale);
    std::vector<double>().swap(r.latency_s);
    std::fprintf(stderr,
                 "round %zu: wall %.4f s, scaled wall %.4f s, cpu %.4f s, "
                 "p50 %.3f us, p95 %.3f us (scaled)\n",
                 plain.size(), raw_wall, r.wall_s, r.cpu_s, p50_us.back(),
                 p95_us.back());
    if (args.trace == 1) {
      traced.push_back(workload->round(true));
      RoundResult& t = traced.back();
      tally.add(t);
      traced_cpu_per_wall.push_back(t.cpu_s / t.wall_s);
      scale_round(t, rescale());
      std::fprintf(stderr, "traced round %zu: scaled wall %.4f s, cpu %.4f s\n",
                   traced.size(), t.wall_s, t.cpu_s);
    }
  }

  bool correct = build_valid && tally.failed == 0;
  std::map<std::string, double> metrics;
  if (args.trace == 0) {
    const double wall = median_of(plain, &RoundResult::wall_s);
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    metrics = {{"setup_s", median(setup_s)},
               {"wall_s", wall},
               {"cpu_s", median_of(plain, &RoundResult::cpu_s)},
               {"peak_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0},
               {"decisions_per_s", static_cast<double>(plain.front().decisions) / wall},
               {"decision_p50_us", median(p50_us)},
               {"decision_p95_us", median(p95_us)}};
  } else {
    // Counts must repeat exactly across traced rounds.
    for (const RoundResult& r : traced) {
      if (r.counts != traced.front().counts) {
        std::fprintf(stderr, "perfbench_netadv: counts differ across rounds\n");
        correct = false;
      }
    }
    std::vector<std::size_t> by_wall(traced.size());
    for (std::size_t k = 0; k < by_wall.size(); ++k) by_wall[k] = k;
    std::sort(by_wall.begin(), by_wall.end(), [&](std::size_t a, std::size_t b) {
      return traced[a].wall_s < traced[b].wall_s;
    });
    const std::size_t chosen_index = by_wall[(by_wall.size() - 1) / 2];
    const RoundResult& chosen = traced[chosen_index];
    double attributed = 0.0;
    for (const auto& [name, seconds] : chosen.layers) {
      if (seconds < -1e-9) {
        std::fprintf(stderr, "perfbench_netadv: negative self time %s = %g\n",
                     name.c_str(), seconds);
        correct = false;
      }
      attributed += seconds;
      metrics[name] = seconds;
    }
    for (const auto& [name, count] : chosen.counts) metrics[name] = count;
    const double unattributed = chosen.wall_s - attributed;
    if (unattributed < -1e-6 * chosen.wall_s) {
      std::fprintf(stderr,
                   "perfbench_netadv: layers sum to %.6f s > wall %.6f s\n",
                   attributed, chosen.wall_s);
      correct = false;
    }
    metrics["unattributed_s"] = unattributed;
    metrics["trace_wall_s"] = chosen.wall_s;
    metrics["trace_overhead_s"] = median_of(traced, &RoundResult::wall_s) -
                                  median_of(plain, &RoundResult::wall_s);
    metrics["util.pool.cpu_per_wall"] = traced_cpu_per_wall[chosen_index];
    metrics["host.reference_s"] = median(reference_s);
    metrics["failed_share"] =
        tally.attempted == 0 ? 0.0
                             : static_cast<double>(tally.failed) /
                                   static_cast<double>(tally.attempted);
  }

  std::printf(
      "{\"perfbench_env\": {\"workload\": \"%s\", \"threads\": %zu, "
      "\"simd_backend\": \"%s\", \"nproc\": %u, \"build_type\": \"%s\", "
      "\"sanitize\": \"%s\", \"build_valid\": %s, \"rounds\": %zu, "
      "\"traced_rounds\": %zu, \"digest\": \"%s\", "
      "\"digest_mismatches\": %zu}}\n",
      spec->name, threads, netadv::rl::kernels::backend_name(),
      std::thread::hardware_concurrency(), build_type.c_str(),
      sanitize.c_str(), build_valid ? "true" : "false", plain.size(),
      traced.size(), netadv::util::hash_hex(tally.digest).c_str(),
      tally.digest_mismatches);

  // Every listed metric is emitted (0 where the workload has no such
  // layer); a metric the list does not name is a harness bug.
  const auto* names_begin = args.trace == 0 ? std::begin(kEndToEnd) : std::begin(kPerLayer);
  const auto* names_end = args.trace == 0 ? std::end(kEndToEnd) : std::end(kPerLayer);
  for (const auto& entry : metrics) {
    if (std::none_of(names_begin, names_end, [&](const MetricSpec& m) {
          return entry.first == m.name;
        })) {
      std::fprintf(stderr, "perfbench_netadv: unlisted metric %s\n",
                   entry.first.c_str());
      correct = false;
    }
  }
  std::string body;
  for (const MetricSpec* m = names_begin; m != names_end; ++m) {
    const auto it = metrics.find(m->name);
    double value = it == metrics.end() ? 0.0 : it->second;
    if (!std::isfinite(value)) {
      std::fprintf(stderr, "perfbench_netadv: %s is not finite\n", m->name);
      correct = false;
      value = 0.0;
    }
    char entry[160];
    std::snprintf(entry, sizeof entry,
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  body.empty() ? "" : ", ", m->name, value, m->unit);
    body += entry;
  }
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {%s}}\n",
              correct ? "true" : "false", tally.attempted, tally.failed,
              body.c_str());
  return 0;
}

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::Args args = perfbench::parse_args(argc, argv);
  try {
    return perfbench::run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_netadv: %s\n", e.what());
    return 1;
  }
}
