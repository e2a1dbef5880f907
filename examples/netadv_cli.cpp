// netadv_cli — command-line front end to the adversarial framework:
//
//   netadv_cli list [protocols|senders|generators|adversaries|qoe|jobs]
//                                                             print registries
//   netadv_cli gen   <generator> <count> <out_prefix>         generate traces
//   netadv_cli eval  <protocol> <trace.csv>                   replay a protocol
//   netadv_cli attack <protocol> <steps> <count> <out_prefix> train + record
//   netadv_cli cc    <sender> <trace.csv>                     replay a CC flow
//   netadv_cli serve <protocol> <qoe> <sessions> <trace.csv>  concurrent
//                    [<out.csv>]                              session serving
//   netadv_cli mm-export <trace.csv> <out.mm>                 Mahimahi export
//   netadv_cli campaign <spec> [--resume] [--dry-run]         run a campaign
//   netadv_cli campaign <spec> --worker                       join as a worker
//   netadv_cli campaign <spec> --spawn-workers N              fork N workers
//   netadv_cli campaign status <spec>                         spool/manifest
//                                                             progress view
//   netadv_cli info                                           build/CPU report
//
// Every <generator>/<protocol>/<sender> name resolves through the core::
// registries (`list` prints them with domain + description); the usage text
// below is generated from the same tables, so it can never go stale.
//
// Exit-code contract: 0 on success, 1 on a runtime error (missing file,
// factory failure such as `eval pensieve` without a checkpoint, or a
// campaign with failed/blocked jobs — the manifest records which), 2 on a
// usage error (unknown command/name/flag or wrong arity). Traces use the
// CSV schema of trace::save_trace.
//
// Worker exit-code contract (--worker / --spawn-workers): a worker exits
// only once the *whole campaign* is settled — 0 when every job completed
// (regardless of which worker ran it), 1 when any job settled failed or
// blocked, 2 on a usage error. So in a fleet, every worker agrees on the
// campaign verdict, and `--spawn-workers N` simply forwards the consensus.
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "abr/optimal.hpp"
#include "abr/runner.hpp"
#include "core/abr_adversary.hpp"
#include "core/recorder.hpp"
#include "core/registry.hpp"
#include "core/trainer.hpp"
#include "exp/campaign.hpp"
#include "exp/jobs.hpp"
#include "exp/manifest.hpp"
#include "exp/scheduler.hpp"
#include "exp/spool.hpp"
#include "rl/kernels.hpp"
#include "serve/engine.hpp"
#include "trace/generators.hpp"
#include "trace/mahimahi.hpp"
#include "trace/trace.hpp"
#include "util/config.hpp"
#include "util/fsatomic.hpp"
#include "util/log.hpp"
#include "util/spec.hpp"
#include "util/stats.hpp"
#include "util/thread_pool.hpp"

using namespace netadv;

namespace {

int usage() {
  const std::string generators = core::trace_generators().names("|");
  const std::string protocols = core::abr_protocols().names("|");
  const std::string senders = core::cc_senders().names("|");
  const std::string qoe = core::qoe_models().names("|");
  std::fprintf(
      stderr,
      "usage:\n"
      "  netadv_cli list [protocols|senders|generators|adversaries|qoe|jobs]\n"
      "  netadv_cli gen <%s> <count> <out_prefix>\n"
      "  netadv_cli eval <%s> <trace.csv>\n"
      "  netadv_cli attack <%s> <steps> <count> <out_prefix>\n"
      "  netadv_cli cc <%s> <trace.csv>\n"
      "  netadv_cli serve <%s> <%s> <sessions> <trace.csv> [<out.csv>]\n"
      "  netadv_cli mm-export <trace.csv> <out.mm>\n"
      "  netadv_cli campaign <spec> [--resume] [--dry-run] [--worker]\n"
      "      [--spawn-workers N] [--lease <seconds>] [--poll-ms <ms>]\n"
      "  netadv_cli campaign status <spec>\n"
      "  netadv_cli info\n",
      generators.c_str(), protocols.c_str(), protocols.c_str(),
      senders.c_str(), protocols.c_str(), qoe.c_str());
  return 2;
}

// The core:: registries own the name -> object tables; every command
// resolves through them so `eval mpc`, a spec's `protocol = mpc`, and the
// `list` output can never diverge. try_make: nullptr = unknown name (usage
// error); a known entry may still throw (runtime error, exit 1).
std::unique_ptr<trace::TraceGenerator> make_generator(const std::string& kind) {
  return core::trace_generators().try_make(kind);
}

std::unique_ptr<abr::AbrProtocol> make_protocol(const std::string& kind) {
  return core::abr_protocols().try_make(kind);
}

/// A positional count: a plain unsigned integer ("-1" and "2x" are
/// rejected, not wrapped or truncated). nullopt after naming the argument
/// on stderr; the caller returns usage().
std::optional<std::size_t> count_arg(const char* name,
                                     const std::string& text) {
  const std::optional<std::uint64_t> value = util::parse_unsigned(text);
  if (!value) {
    std::fprintf(stderr, "error: <%s> must be an unsigned integer, got '%s'\n",
                 name, text.c_str());
  }
  return value;
}

void print_registry(const char* heading, const core::RegistryBase& registry) {
  std::printf("%s:\n", heading);
  for (const core::EntryInfo& entry : registry.entries()) {
    std::printf("  %-12s %-4s %s\n", entry.name.c_str(),
                core::to_string(entry.domain).c_str(),
                entry.description.c_str());
  }
}

void print_jobs() {
  std::printf("campaign job kinds:\n");
  for (const auto& [kind, description] : exp::builtin_jobs().kinds()) {
    // Job kinds are domain-neutral: `domain = abr|cc` is a job param.
    std::printf("  %-16s %-4s %s\n", kind.c_str(), "any", description.c_str());
  }
}

int cmd_list(const std::vector<std::string>& args) {
  const std::vector<std::string> categories =
      args.empty()
          ? std::vector<std::string>{"protocols", "senders", "generators",
                                     "adversaries", "qoe", "jobs"}
          : args;
  for (const std::string& category : categories) {
    if (category == "protocols") {
      print_registry("ABR protocols", core::abr_protocols());
    } else if (category == "senders") {
      print_registry("CC senders", core::cc_senders());
    } else if (category == "generators") {
      print_registry("trace generators", core::trace_generators());
    } else if (category == "adversaries") {
      print_registry("adversary kinds", core::adversary_kinds());
    } else if (category == "qoe") {
      print_registry("QoE models", core::qoe_models());
    } else if (category == "jobs") {
      print_jobs();
    } else {
      std::fprintf(stderr, "list: unknown category '%s'\n", category.c_str());
      return usage();
    }
  }
  return 0;
}

int cmd_gen(const std::vector<std::string>& args) {
  if (args.size() != 3) return usage();
  auto gen = make_generator(args[0]);
  if (!gen) return usage();
  const std::optional<std::size_t> count = count_arg("count", args[1]);
  if (!count) return usage();
  util::Rng rng{20190707};
  for (std::size_t i = 0; i < *count; ++i) {
    const std::string path = args[2] + "_" + std::to_string(i) + ".csv";
    trace::save_trace(gen->generate(rng), path);
    std::printf("wrote %s\n", path.c_str());
  }
  return 0;
}

int cmd_eval(const std::vector<std::string>& args) {
  if (args.size() != 2) return usage();
  auto protocol = make_protocol(args[0]);
  if (!protocol) return usage();
  const trace::Trace t = trace::load_trace(args[1]);
  const abr::VideoManifest manifest;
  const abr::PlaybackRecord record =
      abr::run_playback(*protocol, manifest, t);
  const abr::OptimalPlan optimum = abr::optimal_playback(manifest, t);
  std::printf("%s on %s:\n", protocol->name().c_str(), args[1].c_str());
  std::printf("  QoE            %10.2f (offline optimum %.2f)\n",
              record.total_qoe, optimum.total_qoe);
  std::printf("  mean bitrate   %10.2f Mbps\n", record.mean_bitrate_mbps);
  std::printf("  rebuffering    %10.2f s\n", record.total_rebuffer_s);
  std::printf("  rate switches  %10zu\n", record.quality_switches);
  return 0;
}

int cmd_attack(const std::vector<std::string>& args) {
  if (args.size() != 4) return usage();
  if (!core::abr_protocols().contains(args[0])) return usage();
  const std::optional<std::size_t> steps = count_arg("steps", args[1]);
  const std::optional<std::size_t> count = count_arg("count", args[2]);
  if (!steps || !count) return usage();
  // Resolve the target factory once; attack + per-trace regret reuse it.
  const abr::ProtocolFactory make_target =
      core::abr_protocols().factory(args[0]);
  auto protocol = make_target();

  const abr::VideoManifest manifest;
  core::AbrAdversaryEnv env{manifest, *protocol};
  std::printf("training adversary vs %s for %zu steps...\n",
              protocol->name().c_str(), *steps);
  rl::PpoAgent adversary = core::train_adversary(
      env, core::abr_adversary_ppo_config(), *steps, 20190707);

  util::Rng rng{20190708};
  const auto traces = core::record_abr_traces(adversary, env, *count, rng);
  double regret = 0.0;
  for (std::size_t i = 0; i < traces.size(); ++i) {
    const std::string path = args[3] + "_" + std::to_string(i) + ".csv";
    trace::save_trace(traces[i], path);
    auto target = make_target();
    regret += abr::optimal_playback(manifest, traces[i]).total_qoe -
              abr::run_playback(*target, manifest, traces[i]).total_qoe;
    std::printf("wrote %s\n", path.c_str());
  }
  std::printf("mean regret over %zu traces: %.2f QoE\n", traces.size(),
              regret / static_cast<double>(traces.size()));
  return 0;
}

int cmd_cc(const std::vector<std::string>& args) {
  if (args.size() != 2) return usage();
  if (!core::cc_senders().contains(args[0])) return usage();
  const cc::SenderFactory make_sender = core::cc_senders().factory(args[0]);
  const std::string name = make_sender()->name();
  const trace::Trace t = trace::load_trace(args[1]);
  const core::CcReplayResult result = core::replay_cc_trace(
      {make_sender}, t, {}, /*stagger_s=*/0.0, 20190707);
  std::printf("%s on %s:\n", name.c_str(), args[1].c_str());
  std::printf("  mean throughput  %8.2f Mbps\n",
              result.mean_flow_throughput_mbps[0]);
  std::printf("  mean utilization %8.1f %%\n",
              100.0 * result.mean_utilization);
  return 0;
}

int cmd_serve(const std::vector<std::string>& args) {
  if (args.size() != 4 && args.size() != 5) return usage();
  if (!core::abr_protocols().contains(args[0])) return usage();
  if (!core::qoe_models().contains(args[1])) return usage();
  const std::optional<std::size_t> sessions = count_arg("sessions", args[2]);
  if (!sessions) return usage();
  // Resolve both names up front; `serve pensieve` without a checkpoint
  // throws from the factory at session setup (runtime error, exit 1).
  const abr::ProtocolFactory make_target =
      core::abr_protocols().factory(args[0]);
  const std::unique_ptr<abr::QoeModel> qoe = core::qoe_models().make(args[1]);

  serve::SessionEngine engine{abr::VideoManifest{},
                              {trace::load_trace(args[3])}};
  serve::ServeStats stats;
  const std::vector<serve::SessionSummary> summaries = engine.run(
      make_target, *qoe, *sessions, &util::ThreadPool::global(), &stats);

  double qoe_total = 0.0;
  double rebuffer_total = 0.0;
  for (const serve::SessionSummary& s : summaries) {
    qoe_total += s.qoe;
    rebuffer_total += s.rebuffer_s;
  }
  const double n = static_cast<double>(summaries.size());
  std::printf("%s x %zu sessions on %s (qoe = %s):\n", args[0].c_str(),
              summaries.size(), args[3].c_str(), qoe->name().c_str());
  std::printf("  mean QoE        %10.2f\n", qoe_total / n);
  std::printf("  mean rebuffer   %10.2f s\n", rebuffer_total / n);
  std::printf("  sessions/s      %10.0f\n", stats.sessions_per_s());
  std::printf("  decisions/s     %10.0f\n", stats.decisions_per_s());
  std::printf("  decision p50    %10.1f us\n",
              1e6 * util::percentile(stats.decision_latency_s, 50));
  std::printf("  decision p99    %10.1f us\n",
              1e6 * util::percentile(stats.decision_latency_s, 99));
  if (args.size() == 5) {
    serve::save_session_summaries(summaries, args[4]);
    std::printf("wrote %s\n", args[4].c_str());
  }
  return 0;
}

int cmd_mm_export(const std::vector<std::string>& args) {
  if (args.size() != 2) return usage();
  const trace::Trace t = trace::load_trace(args[0]);
  trace::save_mahimahi_trace(t, args[1]);
  std::printf("wrote %s (%0.f s, mean %.2f Mbps)\n", args[1].c_str(),
              t.total_duration_s(), t.mean_bandwidth_mbps());
  return 0;
}

/// Fork `count` children, each exec'ing this binary back as
/// `campaign <spec> --worker` — a one-machine fleet. The parent waits for
/// all of them and forwards their consensus verdict.
int spawn_workers(const std::string& exe, const std::string& spec_path,
                  long count, double lease_s, int poll_ms) {
  // /proc/self/exe survives argv[0] being a bare name from PATH lookup.
  std::string self = "/proc/self/exe";
  if (::access(self.c_str(), X_OK) != 0) self = exe;
  char lease[32];
  char poll[32];
  std::snprintf(lease, sizeof lease, "%g", lease_s);
  std::snprintf(poll, sizeof poll, "%d", poll_ms);

  std::vector<pid_t> pids;
  for (long i = 0; i < count; ++i) {
    const pid_t pid = ::fork();
    if (pid < 0) {
      std::fprintf(stderr, "campaign: fork failed: %s\n",
                   std::strerror(errno));
      break;  // wait for whatever we managed to start
    }
    if (pid == 0) {
      ::execl(self.c_str(), self.c_str(), "campaign", spec_path.c_str(),
              "--worker", "--lease", lease, "--poll-ms", poll,
              static_cast<char*>(nullptr));
      std::fprintf(stderr, "campaign: exec %s failed: %s\n", self.c_str(),
                   std::strerror(errno));
      ::_exit(127);
    }
    pids.push_back(pid);
  }

  int rc = pids.size() == static_cast<std::size_t>(count) ? 0 : 1;
  for (const pid_t pid : pids) {
    int status = 0;
    if (::waitpid(pid, &status, 0) < 0 || !WIFEXITED(status) ||
        WEXITSTATUS(status) != 0) {
      rc = 1;
    }
  }
  std::printf("campaign: %zu worker(s) finished, verdict %s\n", pids.size(),
              rc == 0 ? "ok" : "failed");
  return rc;
}

/// `campaign status <spec>`: the worker's-eye progress view, read-only —
/// per-job states derived from one manifest snapshot exactly the way a
/// spool worker derives them (exp::derive_spool_view), plus the claim
/// owner and age for anything being worked right now. Touches neither the
/// manifest nor the claims directory, so it is safe to run beside a fleet.
/// Exit code follows the campaign contract: 1 when any job has settled
/// failed/blocked, 0 otherwise (including a campaign still in flight).
int cmd_campaign_status(const std::string& spec_path) {
  const exp::Campaign campaign = exp::load_campaign(spec_path);
  const std::vector<exp::ManifestEntry> entries =
      exp::read_manifest(exp::manifest_path(campaign.out_dir));
  const exp::SpoolView view = exp::derive_spool_view(campaign, entries);

  const auto state_name = [](exp::JobState state) {
    switch (state) {
      case exp::JobState::kWaiting: return "waiting";
      case exp::JobState::kReady: return "ready";
      case exp::JobState::kBlocked: return "blocking";
      case exp::JobState::kSettledOk: return "ok";
      case exp::JobState::kSettledFailed: return "failed";
      case exp::JobState::kSettledBlocked: return "blocked";
    }
    return "?";
  };

  std::printf("campaign %s: %zu jobs, out_dir %s\n", campaign.name.c_str(),
              campaign.jobs.size(), campaign.out_dir.c_str());
  for (std::size_t j = 0; j < campaign.jobs.size(); ++j) {
    const exp::JobSpec& job = campaign.jobs[j];
    const std::string claim = exp::claim_path(campaign.out_dir, job.id);
    std::string claimed;
    if (const auto owner = util::read_file_if_exists(claim)) {
      std::string name = *owner;
      while (!name.empty() && (name.back() == '\n' || name.back() == '\r')) {
        name.pop_back();
      }
      claimed = "  <- claimed by " + (name.empty() ? std::string{"?"} : name);
      if (const auto age = util::file_age_seconds(claim)) {
        char buf[48];
        std::snprintf(buf, sizeof buf, " (%.0fs ago)", *age);
        claimed += buf;
      }
    }
    std::printf("  %-8s %-16s %s%s\n", state_name(view.states[j]),
                job.kind.c_str(), job.id.c_str(), claimed.c_str());
  }
  const std::size_t settled =
      view.settled_ok + view.settled_failed + view.settled_blocked;
  std::printf("settled %zu/%zu: %zu ok, %zu failed, %zu blocked%s\n", settled,
              campaign.jobs.size(), view.settled_ok, view.settled_failed,
              view.settled_blocked,
              view.all_settled ? " — all settled" : "");
  return view.settled_failed == 0 && view.settled_blocked == 0 ? 0 : 1;
}

// Upper bounds on the fleet flags: a lease beyond a day only delays breaking
// a dead worker's claim, a poll beyond a minute only delays noticing settled
// jobs, and a thousand forked workers is already far past useful.
constexpr double kMaxLeaseS = 86400.0;
constexpr std::uint64_t kMaxPollMs = 60000;
constexpr std::uint64_t kMaxSpawnWorkers = 1024;

int cmd_campaign(const std::string& exe,
                 const std::vector<std::string>& args) {
  if (!args.empty() && args[0] == "status") {
    if (args.size() != 2) return usage();
    return cmd_campaign_status(args[1]);
  }
  std::string spec_path;
  bool resume = false;
  bool dry_run = false;
  bool worker = false;
  long spawn = 0;
  double lease_s = 30.0;
  int poll_ms = 200;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (arg == "--resume") {
      resume = true;
    } else if (arg == "--dry-run") {
      dry_run = true;
    } else if (arg == "--worker") {
      worker = true;
    } else if (arg == "--spawn-workers" || arg == "--lease" ||
               arg == "--poll-ms") {
      if (i + 1 >= args.size()) {
        std::fprintf(stderr, "campaign: %s needs a value\n", arg.c_str());
        return usage();
      }
      // Strict parses: "2x" and "50ms" are not numbers, and a NaN, infinite
      // or oversized lease would never let a dead worker's claim expire.
      const std::string& value = args[++i];
      bool ok = false;
      if (arg == "--spawn-workers") {
        const auto n = util::parse_unsigned(value);
        ok = n && *n >= 1 && *n <= kMaxSpawnWorkers;
        if (ok) spawn = static_cast<long>(*n);
      } else if (arg == "--lease") {
        const auto s = util::parse_finite(value);
        ok = s && *s > 0.0 && *s <= kMaxLeaseS;
        if (ok) lease_s = *s;
      } else {
        const auto ms = util::parse_unsigned(value);
        ok = ms && *ms >= 1 && *ms <= kMaxPollMs;
        if (ok) poll_ms = static_cast<int>(*ms);
      }
      if (!ok) {
        std::fprintf(stderr, "campaign: bad value '%s' for %s\n",
                     value.c_str(), arg.c_str());
        return usage();
      }
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "campaign: unknown flag '%s'\n", arg.c_str());
      return usage();
    } else if (spec_path.empty()) {
      spec_path = arg;
    } else {
      return usage();
    }
  }
  if (spec_path.empty()) return usage();
  if (worker && spawn > 0) {
    std::fprintf(stderr,
                 "campaign: --worker and --spawn-workers are exclusive\n");
    return usage();
  }
  if (dry_run && (worker || spawn > 0)) {
    std::fprintf(stderr, "campaign: --dry-run is single-process\n");
    return usage();
  }

  const exp::Campaign campaign = exp::load_campaign(spec_path);
  if (dry_run) {
    std::fputs(exp::format_plan(campaign, resume).c_str(), stdout);
    return 0;
  }
  if (spawn > 0) {
    return spawn_workers(exe, spec_path, spawn, lease_s, poll_ms);
  }
  if (worker) {
    // Worker mode is inherently resume-like (it appends to the shared
    // manifest and reuses settled entries), so --resume is implied.
    exp::SpoolOptions options;
    options.lease_s = lease_s;
    options.poll_ms = poll_ms;
    options.pool = &util::ThreadPool::global();
    const exp::WorkerReport report =
        exp::run_worker(campaign, exp::builtin_jobs(), options);
    std::printf(
        "worker %s: campaign %s settled — %zu ok, %zu failed, %zu blocked\n"
        "  this worker: %zu executed, %zu failed, %zu blocked lines, "
        "%zu stale claims broken\n"
        "manifest: %s\n",
        report.worker.c_str(), campaign.name.c_str(), report.settled_ok,
        report.settled_failed, report.settled_blocked, report.executed,
        report.failed, report.blocked, report.reclaimed,
        report.manifest.c_str());
    return report.ok() ? 0 : 1;
  }
  exp::SchedulerOptions options;
  options.resume = resume;
  options.pool = &util::ThreadPool::global();
  const exp::CampaignReport report =
      exp::run_campaign(campaign, exp::builtin_jobs(), options);
  std::printf(
      "campaign %s: %zu completed, %zu cached, %zu failed, %zu blocked\n"
      "manifest: %s\n",
      campaign.name.c_str(), report.completed, report.skipped, report.failed,
      report.blocked, report.manifest.c_str());
  return report.ok() ? 0 : 1;
}

int cmd_info(const std::vector<std::string>& args) {
  if (!args.empty()) return usage();
  namespace kr = rl::kernels;
  const char* threads_env = std::getenv("NETADV_THREADS");
  const char* scale_env = std::getenv("NETADV_SCALE");
  std::printf("kernel backends (available on this CPU):\n");
  for (const kr::Backend* backend : kr::available_backends()) {
    std::printf("  %s%s\n", backend->name,
                backend == &kr::active_backend() ? "   <- active" : "");
  }
  std::printf("NETADV_THREADS   %s -> %zu lanes\n",
              threads_env ? threads_env : "(unset, hardware)",
              util::ThreadPool::default_thread_count());
  std::printf("NETADV_SCALE     %s -> %g\n",
              scale_env ? scale_env : "(unset, 1)", util::bench_scale());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  std::vector<std::string> args;
  for (int i = 2; i < argc; ++i) args.emplace_back(argv[i]);
  try {
    if (cmd == "list") return cmd_list(args);
    if (cmd == "gen") return cmd_gen(args);
    if (cmd == "eval") return cmd_eval(args);
    if (cmd == "attack") return cmd_attack(args);
    if (cmd == "cc") return cmd_cc(args);
    if (cmd == "serve") return cmd_serve(args);
    if (cmd == "mm-export") return cmd_mm_export(args);
    if (cmd == "campaign") return cmd_campaign(argv[0], args);
    if (cmd == "info") return cmd_info(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return usage();
}
