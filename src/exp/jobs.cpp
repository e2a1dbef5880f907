#include "exp/jobs.hpp"

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <functional>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "abr/optimal.hpp"
#include "abr/pensieve.hpp"
#include "abr/runner.hpp"
#include "core/abr_adversary.hpp"
#include "core/cc_adversary.hpp"
#include "core/cem_adversary.hpp"
#include "core/checkpoint_store.hpp"
#include "core/eval_matrix.hpp"
#include "core/fairness_adversary.hpp"
#include "core/recorder.hpp"
#include "core/registry.hpp"
#include "core/trainer.hpp"
#include "rl/checkpoint.hpp"
#include "serve/engine.hpp"
#include "trace/generators.hpp"
#include "trace/trace.hpp"
#include "util/config.hpp"
#include "util/csv.hpp"
#include "util/rng.hpp"
#include "util/spec.hpp"
#include "util/stats.hpp"

namespace netadv::exp {

namespace {

/// A job's failure, its message already prefixed with "job 'id' (kind): ".
struct JobFailure : std::runtime_error {
  using std::runtime_error::runtime_error;
};

[[noreturn]] void job_fail(const JobContext& ctx, const std::string& what) {
  throw JobFailure{"job '" + ctx.job->id + "' (" + ctx.job->kind + "): " +
                   what};
}

/// `fn()`, with any exception it throws rethrown as this job's failure. A
/// JobFailure passes through as it is, so no message gets the prefix twice.
template <typename Fn>
auto or_fail(const JobContext& ctx, const Fn& fn) -> decltype(fn()) {
  try {
    return fn();
  } catch (const JobFailure&) {
    throw;
  } catch (const std::exception& e) {
    job_fail(ctx, e.what());
  }
}

/// printf into a std::string, for job notes.
[[gnu::format(printf, 1, 2)]] std::string format_note(const char* spec, ...) {
  std::va_list args;
  va_start(args, spec);
  std::va_list sizing;
  va_copy(sizing, args);
  const int size = std::vsnprintf(nullptr, 0, spec, sizing);
  va_end(sizing);
  std::string note(static_cast<std::size_t>(std::max(size, 0)), '\0');
  std::vsnprintf(note.data(), note.size() + 1, spec, args);
  va_end(args);
  return note;
}

std::size_t size_param(const JobContext& ctx, const std::string& key,
                       std::size_t fallback) {
  const std::string* value = ctx.job->find(key);
  if (value == nullptr) return fallback;
  const std::optional<std::uint64_t> parsed = util::parse_unsigned(*value);
  if (!parsed) job_fail(ctx, key + " is not an integer: '" + *value + "'");
  return static_cast<std::size_t>(*parsed);
}

double double_param(const JobContext& ctx, const std::string& key,
                    double fallback) {
  const std::string* value = ctx.job->find(key);
  if (value == nullptr) return fallback;
  const std::optional<double> parsed = util::parse_finite(*value);
  if (!parsed) {
    job_fail(ctx, key + " must be a finite number without a sign: '" +
                      *value + "'");
  }
  return *parsed;
}

/// Corpus sizes scale down with NETADV_SCALE like bench_common's trace
/// counts (full size from scale 0.25 up, floor of 2 below).
std::size_t scaled_count(std::size_t nominal) {
  const double scaled =
      static_cast<double>(nominal) * std::min(1.0, util::bench_scale() * 4.0);
  return std::max<std::size_t>(static_cast<std::size_t>(scaled), 2);
}

/// The deterministic-size manifest every adversary experiment in this repo
/// uses (bench_common and the fig benches pin size_variation = 0).
abr::VideoManifest job_manifest() {
  abr::VideoManifest::Params mp;
  mp.size_variation = 0.0;
  return abr::VideoManifest{mp};
}

/// `domain = abr | cc` selects which target registry and adversary stack a
/// train/record/replay job runs on.
core::TargetDomain domain_param(const JobContext& ctx) {
  return or_fail(ctx, [&] {
    return core::parse_domain(ctx.job->value_or("domain", "abr"));
  });
}

/// Root of the campaign's checkpoint store: `store_dir =` when given, else
/// `<out_dir>/store`. Publishing jobs and target_args share this one
/// resolution, so `protocol = pensieve@champion` inside a campaign targets
/// the population *this campaign's* promote jobs fill by default.
std::string store_root(const JobContext& ctx) {
  return ctx.job->value_or("store_dir", ctx.out_dir + "/store");
}

/// Registry args for target factories: the job's own params, with
/// `checkpoint_from = <job id>` resolved to that dependency's
/// _pensieve.ckpt (so a robustified policy is targetable by name), and the
/// campaign's store root wired in so store refs (`pensieve@<name>[@vK]`)
/// resolve against store_root(ctx).
core::FactoryArgs target_args(const JobContext& ctx) {
  core::FactoryArgs args;
  args.bind(
      [job = ctx.job](const std::string& key) { return job->find(key); });
  args.set("store", store_root(ctx));
  if (const std::string* from = ctx.job->find("checkpoint_from")) {
    args.set("checkpoint", ctx.input_ending_with(*from, "_pensieve.ckpt"));
  }
  return args;
}

/// Optional post-training publication: `store_name = <population>` copies a
/// job's checkpoint into the campaign store. `store_version =` is required
/// and explicit — versions are immutable provenance, not an auto-counter,
/// so a resumed or double-executed job republishes the same slot and the
/// store's idempotent put makes that a no-op. Returns the stored path.
std::string publish_checkpoint(const JobContext& ctx, const std::string& name,
                               const std::string& kind,
                               const std::string& source) {
  if (ctx.job->find("store_version") == nullptr) {
    job_fail(ctx, "store_name needs store_version = <integer> (explicit so "
                  "re-runs republish the same immutable slot)");
  }
  const std::uint64_t version = size_param(ctx, "store_version", 0);
  return or_fail(ctx, [&] {
    return core::CheckpointStore{store_root(ctx)}
        .put(name, version, kind, source,
             ctx.campaign->name + "/" + ctx.job->id)
        .path;
  });
}

/// Byte-verbatim file copy — promote republishes a winning checkpoint
/// without perturbing a single byte (the store's identity contract).
void copy_bytes(const std::string& from, const std::string& to) {
  std::ifstream in{from, std::ios::binary};
  if (!in) throw std::runtime_error{"cannot open " + from};
  std::ostringstream buffer;
  buffer << in.rdbuf();
  std::ofstream out{to, std::ios::binary | std::ios::trunc};
  out << buffer.str();
  out.close();
  if (!out) throw std::runtime_error{"cannot write " + to};
}

/// Resolve `protocol =` against the target registry exactly once, up front:
/// a bad name fails the job here, before any artifact is written, and the
/// returned factory is handed to every batch API that needs fresh targets.
template <typename T>
std::function<std::unique_ptr<T>()> target_factory(
    const JobContext& ctx, const core::Registry<T>& registry) {
  return or_fail(ctx, [&] {
    return registry.factory(ctx.job->value_or("protocol", ""),
                            target_args(ctx));
  });
}

/// The trace set a replay or serve job reads: `traces = <job>` or
/// `trace_file = <path>`.
std::vector<trace::Trace> trace_set_param(const JobContext& ctx) {
  if (const std::string* set_job = ctx.job->find("traces")) {
    return trace::load_trace_set(
        ctx.input_ending_with(*set_job, "_traces.csv"));
  }
  if (const std::string* file = ctx.job->find("trace_file")) {
    return trace::load_trace_set(*file);
  }
  job_fail(ctx, ctx.job->kind +
                    " needs traces = <trace-set job> or trace_file = ...");
}

/// Index of the column headed `name`, or nullopt — artifacts are read by
/// column name, never by position.
std::optional<std::size_t> column_of(const util::CsvTable& table,
                                     const std::string& name) {
  const auto it = std::find(table.header.begin(), table.header.end(), name);
  if (it == table.header.end()) return std::nullopt;
  return static_cast<std::size_t>(it - table.header.begin());
}

/// One numeric CSV row per recorded episode or replayed trace.
using Rows = std::vector<std::vector<double>>;

double column_sum(const Rows& rows, std::size_t column) {
  double total = 0.0;
  for (const auto& row : rows) total += row[column];
  return total;
}

void write_rows(const std::string& path,
                const std::vector<std::string>& header, const Rows& rows) {
  util::CsvWriter writer{path};
  writer.write_row(header);
  for (const auto& row : rows) writer.write_row(row);
  writer.close();
}

/// A record job's output: the replayable corpus, one summary row per trace.
struct Recording {
  std::vector<trace::Trace> traces;
  Rows summary;
};

/// What a train-adversary / record-traces / replay job attacks, resolved
/// once from its params — `domain`, `adversary`, `protocol` or `flows`,
/// `duration`, `reward` — into one descriptor per target family: an ABR
/// protocol, a CC sender, or a CC flow mix. Each job kind then runs one
/// path over it. Construction resolves every target name, so a bad one
/// fails the job before any artifact is written.
class AttackSetup {
 public:
  virtual ~AttackSetup() = default;
  AttackSetup(const AttackSetup&) = delete;
  AttackSetup& operator=(const AttackSetup&) = delete;

  /// `make(env)` on a fresh env around fresh targets — the one place an
  /// adversary meets its env, for training and for restoring alike.
  virtual rl::PpoAgent on_env(
      const std::function<rl::PpoAgent(rl::Env&)>& make) const = 0;
  /// `count` adversarial episodes on streams forked from the job seed.
  virtual Recording record(std::size_t count) const = 0;
  /// One row per trace: the target replayed on the recorded conditions.
  virtual Rows replay(const std::vector<trace::Trace>& traces) const = 0;
  /// The note over a record job's summary, or over a replay job's rows.
  virtual std::string note(const Rows& rows, bool replay) const = 0;

  rl::PpoAgent train(std::size_t steps) const {
    return on_env([&](rl::Env& env) {
      return core::train_adversary(env, config, steps, ctx_.seed, nullptr,
                                   ctx_.pool);
    });
  }

  /// The `from = <train-adversary job>` checkpoint in this topology.
  rl::PpoAgent restore() const {
    const std::string* from = ctx_.job->find("from");
    if (from == nullptr) {
      job_fail(ctx_, "record-traces with adversary = ppo needs from = "
                     "<train-adversary job>");
    }
    const std::string checkpoint =
        ctx_.input_ending_with(*from, "_adversary.ckpt");
    return on_env([&](rl::Env& env) {
      return core::restore_adversary(env, config, checkpoint);
    });
  }

  rl::PpoConfig config;  ///< adversary_ppo_config(domain)
  std::string subject;   ///< "adversary vs bb", for the train note
  std::vector<std::string> summary_header;
  std::vector<std::string> replay_header;
  std::string replay_suffix = "_replay.csv";

 protected:
  AttackSetup(const JobContext& ctx, core::TargetDomain domain)
      : config(core::adversary_ppo_config(domain)), ctx_(ctx) {}

  const JobContext& ctx_;
};

/// An ABR protocol on the deterministic-size manifest, attacked by PPO or
/// by CEM — which searches traces directly and needs no checkpoint.
class AbrAttack final : public AttackSetup {
 public:
  AbrAttack(const JobContext& ctx, std::string adversary)
      : AttackSetup{ctx, core::TargetDomain::kAbr},
        adversary_(std::move(adversary)),
        make_target_(target_factory(ctx, core::abr_protocols())) {
    subject = "adversary vs " + make_target_()->name();
    summary_header = {"trace", "optimal_qoe", "protocol_qoe", "regret"};
    replay_header = {"trace", "qoe"};
    replay_suffix = "_qoe.csv";
  }

  rl::PpoAgent on_env(
      const std::function<rl::PpoAgent(rl::Env&)>& make) const override {
    const auto target = make_target_();
    core::AbrAdversaryEnv env{manifest_, *target};
    return make(env);
  }

  Recording record(std::size_t count) const override {
    Recording out;
    out.traces = adversary_ == "cem"
                     ? cem_search(count)
                     : core::record_abr_traces(
                           restore(), manifest_, make_target_, {}, count,
                           ctx_.seed, /*deterministic=*/false, ctx_.pool);
    out.summary = util::parallel_map(
        ctx_.pool, out.traces.size(), [&](std::size_t i) {
          const trace::Trace& t = out.traces[i];
          const auto target = make_target_();
          const double optimal = abr::optimal_playback(manifest_, t).total_qoe;
          const double got = abr::run_playback(*target, manifest_, t).total_qoe;
          return std::vector<double>{static_cast<double>(i), optimal, got,
                                     optimal - got};
        });
    return out;
  }

  Rows replay(const std::vector<trace::Trace>& traces) const override {
    const std::vector<double> qoe =
        abr::qoe_per_trace(make_target_, manifest_, traces, {}, ctx_.pool);
    Rows rows;
    for (std::size_t i = 0; i < qoe.size(); ++i) {
      rows.push_back({static_cast<double>(i), qoe[i]});
    }
    return rows;
  }

  std::string note(const Rows& rows, bool replay) const override {
    // Mean regret (summary column 3) or mean QoE (replay column 1).
    const double mean =
        rows.empty() ? 0.0
                     : column_sum(rows, replay ? 1 : 3) /
                           static_cast<double>(rows.size());
    return replay ? format_note("%zu replays, mean QoE %.2f", rows.size(),
                                mean)
                  : format_note("%zu traces, mean regret %.2f QoE",
                                rows.size(), mean);
  }

 private:
  /// One independent CEM search per trace, stream-forked before dispatch:
  /// the corpus is bit-identical at any thread count.
  std::vector<trace::Trace> cem_search(std::size_t count) const {
    core::CemTraceAdversary::Params params;
    params.population = size_param(ctx_, "population", params.population);
    const std::size_t nominal_iterations =
        size_param(ctx_, "iterations", params.iterations);
    params.iterations = std::max<std::size_t>(
        static_cast<std::size_t>(static_cast<double>(nominal_iterations) *
                                 std::min(1.0, util::bench_scale())),
        2);
    const core::CemTraceAdversary cem{params};
    std::vector<util::Rng> streams = util::Rng{ctx_.seed}.fork_streams(count);
    return util::parallel_map(ctx_.pool, count, [&](std::size_t i) {
      const auto target = make_target_();
      return cem.search(manifest_, *target, streams[i]).best_trace;
    });
  }

  std::string adversary_;
  abr::ProtocolFactory make_target_;
  abr::VideoManifest manifest_ = job_manifest();
};

/// One CC sender on the adversary-controlled link (Section 4).
class CcAttack final : public AttackSetup {
 public:
  CcAttack(const JobContext& ctx, const std::string& adversary)
      : AttackSetup{ctx, core::TargetDomain::kCc},
        make_sender_(target_factory(ctx, core::cc_senders())) {
    if (adversary != "ppo") {
      job_fail(ctx, "record-traces with domain = cc supports adversary = ppo "
                    "only — CEM searches chunk-bandwidth traces, an ABR "
                    "formulation");
    }
    // `duration =` shortens the 30-s episodes (Figure 5's 1000 epochs) to
    // bound work; the env's validator checks it against epoch_s — here, so
    // its error carries the job's prefix.
    params_.episode_duration_s =
        double_param(ctx, "duration", params_.episode_duration_s);
    or_fail(ctx, [&] { core::CcAdversaryEnv{params_, make_sender_}; });
    subject = "adversary vs " + make_sender_()->name();
    summary_header = {"trace", "mean_utilization"};
    replay_header = {"trace", "utilization", "throughput_mbps"};
  }

  rl::PpoAgent on_env(
      const std::function<rl::PpoAgent(rl::Env&)>& make) const override {
    core::CcAdversaryEnv env{params_, make_sender_};
    return make(env);
  }

  Recording record(std::size_t count) const override {
    std::vector<core::CcEpisodeRecord> episodes = core::record_cc_episodes(
        restore(), params_, make_sender_, count, ctx_.seed,
        /*deterministic=*/false, ctx_.pool);
    Recording out;
    for (std::size_t i = 0; i < episodes.size(); ++i) {
      out.traces.push_back(std::move(episodes[i].trace));
      out.summary.push_back(
          {static_cast<double>(i), episodes[i].mean_utilization});
    }
    return out;
  }

  Rows replay(const std::vector<trace::Trace>& traces) const override {
    const std::vector<core::CcReplayResult> replays = core::replay_cc_traces(
        {make_sender_}, traces, {}, /*stagger_s=*/0.0, ctx_.seed, ctx_.pool);
    Rows rows;
    for (std::size_t i = 0; i < replays.size(); ++i) {
      rows.push_back({static_cast<double>(i), replays[i].mean_utilization,
                      replays[i].mean_flow_throughput_mbps[0]});
    }
    return rows;
  }

  std::string note(const Rows& rows, bool replay) const override {
    // Mean utilization is column 1 of both tables.
    const double n = static_cast<double>(rows.size());
    const double total = column_sum(rows, 1);
    if (replay) {
      return format_note("%zu cc replays, mean utilization %.1f%%",
                         rows.size(), rows.empty() ? 0.0 : 100.0 * total / n);
    }
    return format_note("%zu cc episodes, mean utilization %.1f%%",
                       rows.size(), 100.0 * (rows.empty() ? 0.0 : total / n));
  }

 private:
  cc::SenderFactory make_sender_;
  core::CcAdversaryEnv::Params params_;
};

/// A flow mix sharing one bottleneck (`flows =`, default bbr,bbr) under a
/// fairness-family adversary (fairness, cross-traffic, late-join) scored by
/// `reward = jain | victim`.
class FairnessAttack final : public AttackSetup {
 public:
  FairnessAttack(const JobContext& ctx, const std::string& adversary,
                 core::FairnessAdversaryEnv::Scenario scenario)
      : AttackSetup{ctx, core::TargetDomain::kCc},
        mix_names_(ctx.job->value_or("flows", "bbr,bbr")) {
    params_.scenario = scenario;
    mix_ = or_fail(ctx, [&] { return core::resolve_flow_mix(mix_names_); });
    params_.reward = or_fail(ctx, [&] {
      return core::parse_fairness_reward(ctx.job->value_or("reward", "jain"));
    });
    params_.episode_duration_s =
        double_param(ctx, "duration", params_.episode_duration_s);
    // Short test/smoke episodes must still see every flow start: shrink the
    // stagger (and the late-join window) with the episode so the reward
    // gate opens while there are epochs left to pay for.
    params_.stagger_s =
        std::min(params_.stagger_s,
                 params_.episode_duration_s /
                     (4.0 * static_cast<double>(mix_.size())));
    params_.late_join_max_s =
        std::min(params_.late_join_max_s, params_.episode_duration_s / 3.0);
    params_.late_join_min_s =
        std::min(params_.late_join_min_s, params_.late_join_max_s);
    or_fail(ctx, [&] { core::FairnessAdversaryEnv{params_, mix_}; });
    subject = adversary + " adversary vs " + mix_names_;
    adversary_ = adversary;
    const auto header = [&](const char* first) {
      std::vector<std::string> columns{first};
      for (std::size_t f = 0; f < mix_.size(); ++f) {
        columns.push_back("flow" + std::to_string(f) + "_mbps");
      }
      columns.insert(columns.end(), {"jain", "victim_utilization",
                                     "aggregate_utilization"});
      return columns;
    };
    summary_header = header("episode");
    replay_header = header("trace");
  }

  rl::PpoAgent on_env(
      const std::function<rl::PpoAgent(rl::Env&)>& make) const override {
    core::FairnessAdversaryEnv env{params_, mix_};
    return make(env);
  }

  Recording record(std::size_t count) const override {
    std::vector<core::FairnessEpisodeRecord> episodes =
        core::record_fairness_episodes(restore(), params_, mix_, count,
                                       ctx_.seed, /*deterministic=*/false,
                                       ctx_.pool);
    Recording out;
    for (std::size_t i = 0; i < episodes.size(); ++i) {
      core::FairnessEpisodeRecord& e = episodes[i];
      std::vector<double> row{static_cast<double>(i)};
      for (std::size_t f = 0; f < mix_.size(); ++f) {
        row.push_back(f < e.flow_throughput_mbps.size()
                          ? util::mean(e.flow_throughput_mbps[f])
                          : 0.0);
      }
      row.insert(row.end(), {e.mean_jain, e.mean_victim_utilization,
                             e.mean_aggregate_utilization});
      out.traces.push_back(std::move(e.trace));
      out.summary.push_back(std::move(row));
    }
    return out;
  }

  /// The whole mix (two or more flows, per resolve_flow_mix) replays each
  /// trace together, starts staggered by `stagger =` seconds (default 0.5).
  Rows replay(const std::vector<trace::Trace>& traces) const override {
    const std::vector<core::CcReplayResult> replays =
        core::replay_cc_traces(mix_, traces, {},
                               double_param(ctx_, "stagger", 0.5), ctx_.seed,
                               ctx_.pool);
    Rows rows;
    for (std::size_t i = 0; i < replays.size(); ++i) {
      const core::CcReplayResult& r = replays[i];
      std::vector<double> row{static_cast<double>(i)};
      row.insert(row.end(), r.mean_flow_throughput_mbps.begin(),
                 r.mean_flow_throughput_mbps.end());
      row.insert(row.end(), {r.mean_jain, r.mean_victim_utilization,
                             r.mean_utilization});
      rows.push_back(std::move(row));
    }
    return rows;
  }

  std::string note(const Rows& rows, bool replay) const override {
    // Both tables lead with the index and one column per flow.
    const std::size_t jain = 1 + mix_.size();
    if (replay) {
      return format_note("%zu multi-flow replays, mean Jain %.3f",
                         rows.size(),
                         rows.empty() ? 1.0
                                      : column_sum(rows, jain) /
                                            static_cast<double>(rows.size()));
    }
    const double n = rows.empty() ? 1.0 : static_cast<double>(rows.size());
    return format_note(
        "%zu %s episodes vs %s, mean Jain %.3f, victim util %.1f%%",
        rows.size(), adversary_.c_str(), mix_names_.c_str(),
        column_sum(rows, jain) / n, 100.0 * (column_sum(rows, jain + 1) / n));
  }

 private:
  std::string adversary_;
  std::string mix_names_;
  std::vector<cc::SenderFactory> mix_;
  core::FairnessAdversaryEnv::Params params_;
};

/// Resolve the job's attack. `adversary` is ppo, cem or a fairness kind; a
/// fairness kind attacks a flow mix and needs domain = cc, otherwise the
/// domain picks the target family.
std::unique_ptr<AttackSetup> attack_setup(const JobContext& ctx,
                                          const std::string& adversary) {
  const core::TargetDomain domain = domain_param(ctx);
  if (const auto scenario = core::fairness_scenario_for(adversary)) {
    if (domain != core::TargetDomain::kCc) {
      job_fail(ctx, "fairness adversaries need domain = cc");
    }
    return std::make_unique<FairnessAttack>(ctx, adversary, *scenario);
  }
  if (domain == core::TargetDomain::kCc) {
    return std::make_unique<CcAttack>(ctx, adversary);
  }
  return std::make_unique<AbrAttack>(ctx, adversary);
}

JobResult run_gen_traces(const JobContext& ctx) {
  const auto generator = or_fail(ctx, [&] {
    return core::trace_generators().make(ctx.job->value_or("generator", ""));
  });
  const std::size_t count = scaled_count(size_param(ctx, "count", 100));
  util::Rng rng{ctx.seed};
  const std::vector<trace::Trace> traces = generator->generate_many(count, rng);
  JobResult result;
  result.artifacts.push_back(ctx.artifact("_traces.csv"));
  trace::save_trace_set(traces, result.artifacts.back());
  result.note = std::to_string(count) + " " + generator->name() + " traces";
  return result;
}

JobResult run_train_adversary(const JobContext& ctx) {
  const std::string adversary = ctx.job->value_or("adversary", "ppo");
  if (adversary != "ppo" && !core::fairness_scenario_for(adversary)) {
    job_fail(ctx, "train-adversary supports adversary = ppo or a fairness "
                  "kind (fairness | cross-traffic | late-join); CEM is "
                  "trace-based — use record-traces with adversary = cem");
  }
  const std::unique_ptr<AttackSetup> setup = attack_setup(ctx, adversary);
  const std::size_t steps =
      util::scaled_steps(size_param(ctx, "steps", 80000), 256);
  JobResult result;
  result.artifacts.push_back(ctx.artifact("_adversary.ckpt"));
  rl::save_checkpoint(setup->train(steps), result.artifacts.back());
  if (const std::string* store_name = ctx.job->find("store_name")) {
    result.artifacts.push_back(publish_checkpoint(
        ctx, *store_name, "adversary", result.artifacts.front()));
  }
  result.note =
      "PPO " + setup->subject + ", " + std::to_string(steps) + " steps";
  return result;
}

JobResult run_record_traces(const JobContext& ctx) {
  const std::string adversary = ctx.job->value_or("adversary", "ppo");
  if (!core::adversary_kinds().contains(adversary)) {
    job_fail(ctx, "unknown adversary '" + adversary + "' (" +
                      core::adversary_kinds().names() + ")");
  }
  const std::unique_ptr<AttackSetup> setup = attack_setup(ctx, adversary);
  const Recording recording =
      setup->record(scaled_count(size_param(ctx, "count", 20)));
  JobResult result;
  result.artifacts.push_back(ctx.artifact("_traces.csv"));
  trace::save_trace_set(recording.traces, result.artifacts.back());
  result.artifacts.push_back(ctx.artifact("_summary.csv"));
  write_rows(result.artifacts.back(), setup->summary_header,
             recording.summary);
  result.note = setup->note(recording.summary, /*replay=*/false);
  return result;
}

JobResult run_replay(const JobContext& ctx) {
  // A replay attacks nothing, so it has no adversary kind: `flows =`
  // replays the whole mix on each trace, otherwise the single target does.
  const std::unique_ptr<AttackSetup> setup = attack_setup(
      ctx, ctx.job->find("flows") != nullptr ? "fairness" : "ppo");
  const Rows rows = setup->replay(trace_set_param(ctx));
  JobResult result;
  result.artifacts.push_back(ctx.artifact(setup->replay_suffix));
  write_rows(result.artifacts.back(), setup->replay_header, rows);
  result.note = setup->note(rows, /*replay=*/true);
  return result;
}

JobResult run_serve(const JobContext& ctx) {
  std::vector<trace::Trace> traces = trace_set_param(ctx);

  const std::string qoe_name = ctx.job->value_or("qoe", "lin");
  const auto qoe = or_fail(
      ctx, [&] { return core::qoe_models().make(qoe_name, target_args(ctx)); });

  const std::size_t sessions = scaled_count(size_param(ctx, "sessions", 100));
  const std::string protocol = ctx.job->value_or("protocol", "");
  serve::SessionEngine engine{job_manifest(), std::move(traces)};
  serve::ServeStats stats;
  std::vector<serve::SessionSummary> summaries;
  if (protocol == "pensieve") {
    // Batched inference: one act_deterministic_batch per tick, bit-identical
    // to per-session forwards (ParallelServe pins that at the engine).
    const core::FactoryArgs args = target_args(ctx);
    const std::string* checkpoint = args.find("checkpoint");
    if (checkpoint == nullptr) {
      job_fail(ctx, "protocol 'pensieve' needs checkpoint = <path> or "
                    "checkpoint_from = <robustify-round job>");
    }
    rl::PpoAgent agent = abr::make_pensieve_agent(engine.manifest(),
                                                  /*seed=*/0);
    rl::load_checkpoint(agent, *checkpoint);
    serve::PensieveBatchPolicy policy{agent};
    summaries = engine.run(policy, *qoe, sessions, ctx.pool, &stats);
  } else {
    summaries = engine.run(target_factory(ctx, core::abr_protocols()), *qoe,
                           sessions, ctx.pool, &stats);
  }

  double qoe_total = 0.0;
  for (const serve::SessionSummary& s : summaries) qoe_total += s.qoe;
  JobResult result;
  result.artifacts.push_back(ctx.artifact("_sessions.csv"));
  serve::save_session_summaries(summaries, result.artifacts.back());
  result.note = format_note(
      "%zu sessions x %zu traces, mean %s QoE %.2f (%.0f decisions/s)",
      summaries.size(), engine.traces().size(), qoe->name().c_str(),
      qoe_total / static_cast<double>(summaries.size()),
      stats.decisions_per_s());
  return result;
}

/// `key = <generator>` resolved against the registry, with the param name in
/// the failure so grid/round specs pinpoint the bad line.
std::unique_ptr<trace::TraceGenerator> generator_param(
    const JobContext& ctx, const std::string& key, const std::string& kind) {
  try {
    return core::trace_generators().make(kind);
  } catch (const std::exception& e) {
    job_fail(ctx, key + ": " + e.what());
  }
}

/// Training corpus shared by robustify-round and train-protocol: a
/// `corpus_from =` gen-traces dependency or a freshly generated
/// `train_set =` corpus, plus the recorded trace sets of any
/// `traces_from =` dependencies (the iterated Section-2.3 loop).
std::vector<trace::Trace> training_corpus(const JobContext& ctx) {
  std::vector<trace::Trace> corpus;
  if (const std::string* corpus_from = ctx.job->find("corpus_from")) {
    corpus = trace::load_trace_set(
        ctx.input_ending_with(*corpus_from, "_traces.csv"));
  } else if (const std::string* train_set = ctx.job->find("train_set")) {
    const auto generator = generator_param(ctx, "train_set", *train_set);
    util::Rng rng{ctx.seed ^ 0x9e3779b97f4a7c15ULL};
    corpus = generator->generate_many(
        scaled_count(size_param(ctx, "corpus_count", 100)), rng);
  } else {
    job_fail(ctx, ctx.job->kind + " needs corpus_from = <gen-traces job> or "
                  "train_set = " + core::trace_generators().names());
  }
  for (const auto& prev :
       util::split_list(ctx.job->value_or("traces_from", ""))) {
    const std::vector<trace::Trace> extra =
        trace::load_trace_set(ctx.input_ending_with(prev, "_traces.csv"));
    corpus.insert(corpus.end(), extra.begin(), extra.end());
  }
  return corpus;
}

JobResult run_robustify_round(const JobContext& ctx) {
  const abr::VideoManifest manifest = job_manifest();
  abr::PensieveEnv env{manifest, training_corpus(ctx)};
  rl::PpoAgent pensieve = abr::make_pensieve_agent(manifest, ctx.seed);
  if (const std::string* init = ctx.job->find("init")) {
    rl::load_checkpoint(pensieve,
                        ctx.input_ending_with(*init, "_pensieve.ckpt"));
  }

  core::RobustifyConfig cfg;
  cfg.protocol_steps =
      util::scaled_steps(size_param(ctx, "protocol_steps", 150000), 1024);
  cfg.inject_fraction = double_param(ctx, "inject_fraction", 0.9);
  if (cfg.inject_fraction <= 0.0 || cfg.inject_fraction >= 1.0) {
    job_fail(ctx, "inject_fraction must lie in (0, 1) — a round without an "
                  "adversary phase is plain training");
  }
  cfg.adversary_steps =
      util::scaled_steps(size_param(ctx, "adversary_steps", 80000), 512);
  cfg.adversarial_traces = scaled_count(size_param(ctx, "traces", 100));
  cfg.seed = ctx.seed;
  cfg.pool = ctx.pool;
  const core::RobustifyResult round = core::robustify_pensieve(pensieve, env, cfg);

  // Held-out evaluation with a *pinned* seed so rounds stay comparable.
  const std::string eval_kind = ctx.job->value_or("eval_set", "fcc");
  const auto eval_generator = generator_param(ctx, "eval_set", eval_kind);
  util::Rng eval_rng{size_param(ctx, "eval_seed", 20190707)};
  const std::vector<trace::Trace> eval_traces = eval_generator->generate_many(
      scaled_count(size_param(ctx, "eval_count", 50)), eval_rng);
  const std::vector<double> qoe = abr::qoe_per_trace(
      [&pensieve]() -> std::unique_ptr<abr::AbrProtocol> {
        return std::make_unique<abr::OwnedPensievePolicy>(pensieve);
      },
      manifest, eval_traces, {}, ctx.pool);
  const double mean_qoe = util::mean(qoe);
  const double p5_qoe = util::percentile(qoe, 5);

  JobResult result;
  result.artifacts.push_back(ctx.artifact("_pensieve.ckpt"));
  rl::save_checkpoint(pensieve, result.artifacts.back());
  result.artifacts.push_back(ctx.artifact("_traces.csv"));
  trace::save_trace_set(round.adversarial_traces, result.artifacts.back());
  result.artifacts.push_back(ctx.artifact("_metrics.csv"));
  {
    util::CsvWriter writer{result.artifacts.back()};
    writer.write_row(std::vector<std::string>{
        "mean_qoe", "p5_qoe", "eval_traces", "corpus_traces",
        "adversarial_traces"});
    writer.write_row(std::vector<double>{
        mean_qoe, p5_qoe, static_cast<double>(eval_traces.size()),
        static_cast<double>(env.traces().size()),
        static_cast<double>(round.adversarial_traces.size())});
    writer.close();
  }
  result.note = format_note(
      "eval mean QoE %.2f, p5 %.2f (%zu adversarial traces added)", mean_qoe,
      p5_qoe, round.adversarial_traces.size());
  return result;
}

/// Plain (non-adversarial) Pensieve training — generation candidates in the
/// co-training loop, baselines anywhere else. The corpus comes from
/// training_corpus(); `exploit_from = <record jobs>` plus `top_k = N`
/// focuses retraining on the most-exploiting adversaries: each listed
/// record job's _summary.csv yields a mean regret, and the top k by regret
/// contribute their recorded traces to the corpus.
JobResult run_train_protocol(const JobContext& ctx) {
  const abr::VideoManifest manifest = job_manifest();
  std::vector<trace::Trace> corpus = training_corpus(ctx);

  std::size_t exploit_used = 0;
  const std::vector<std::string> exploit =
      util::split_list(ctx.job->value_or("exploit_from", ""));
  if (!exploit.empty()) {
    // Rank candidate corpora by how hard they exploit (mean regret from each
    // record job's summary); stable sort keeps ties in declaration order.
    std::vector<std::pair<double, std::size_t>> ranked;
    for (std::size_t i = 0; i < exploit.size(); ++i) {
      const util::CsvTable summary = or_fail(ctx, [&] {
        return util::read_csv(
            ctx.input_ending_with(exploit[i], "_summary.csv"));
      });
      const std::optional<std::size_t> regret_col =
          column_of(summary, "regret");
      if (!regret_col) {
        job_fail(ctx, "exploit_from job '" + exploit[i] +
                          "' has no regret column — rank exploiters with ABR "
                          "record-traces summaries");
      }
      double total = 0.0;
      for (const auto& row : summary.rows) total += row[*regret_col];
      ranked.emplace_back(summary.rows.empty()
                              ? 0.0
                              : total / static_cast<double>(summary.rows.size()),
                          i);
    }
    std::stable_sort(
        ranked.begin(), ranked.end(),
        [](const auto& a, const auto& b) { return a.first > b.first; });
    const std::size_t top_k =
        std::min(size_param(ctx, "top_k", exploit.size()), exploit.size());
    if (top_k == 0) job_fail(ctx, "top_k must be >= 1");
    for (std::size_t r = 0; r < top_k; ++r) {
      const std::vector<trace::Trace> extra = trace::load_trace_set(
          ctx.input_ending_with(exploit[ranked[r].second], "_traces.csv"));
      corpus.insert(corpus.end(), extra.begin(), extra.end());
    }
    exploit_used = top_k;
  }

  abr::PensieveEnv env{manifest, std::move(corpus)};
  rl::PpoAgent pensieve = abr::make_pensieve_agent(manifest, ctx.seed);
  if (const std::string* init = ctx.job->find("init")) {
    rl::load_checkpoint(pensieve,
                        ctx.input_ending_with(*init, "_pensieve.ckpt"));
  }

  core::RobustifyConfig cfg;
  cfg.protocol_steps =
      util::scaled_steps(size_param(ctx, "steps", 150000), 1024);
  cfg.inject_fraction = 1.0;  // plain training: no adversary phase
  cfg.seed = ctx.seed;
  cfg.pool = ctx.pool;
  core::robustify_pensieve(pensieve, env, cfg);

  JobResult result;
  result.artifacts.push_back(ctx.artifact("_pensieve.ckpt"));
  // v3 provenance meta: every value is a pure function of (params, resolved
  // seed, inputs), so the bytes keep the resume/thread-count identity.
  const rl::CheckpointMeta meta{
      {"campaign", ctx.campaign->name},
      {"job", ctx.job->id},
      {"kind", "train-protocol"},
      {"seed", std::to_string(ctx.seed)},
      {"steps", std::to_string(cfg.protocol_steps)},
      {"corpus_traces", std::to_string(env.traces().size())},
  };
  rl::save_checkpoint(pensieve, result.artifacts.back(), meta);
  if (const std::string* store_name = ctx.job->find("store_name")) {
    result.artifacts.push_back(publish_checkpoint(ctx, *store_name, "protocol",
                                                  result.artifacts.front()));
  }
  result.note = format_note("%zu steps on %zu traces (%zu/%zu exploiter sets)",
                            cfg.protocol_steps, env.traces().size(),
                            exploit_used, exploit.size());
  return result;
}

/// Fill one generation's regret matrix: every `checkpoints =` training
/// job's policy against every `corpora =` record job's trace set, all
/// through core::eval_matrix's single execution path.
JobResult run_eval_matrix(const JobContext& ctx) {
  const abr::VideoManifest manifest = job_manifest();
  std::vector<core::EvalRow> rows;
  for (const std::string& id :
       util::split_list(ctx.job->value_or("corpora", ""))) {
    rows.push_back(
        {id, trace::load_trace_set(ctx.input_ending_with(id, "_traces.csv"))});
  }
  if (rows.empty()) {
    job_fail(ctx, "eval-matrix needs corpora = <record-traces jobs>");
  }
  std::vector<core::EvalColumn> columns;
  for (const std::string& id :
       util::split_list(ctx.job->value_or("checkpoints", ""))) {
    core::FactoryArgs args;
    args.set("checkpoint", ctx.input_ending_with(id, "_pensieve.ckpt"));
    columns.push_back({id, core::abr_protocols().factory("pensieve", args)});
  }
  if (columns.empty()) {
    job_fail(ctx, "eval-matrix needs checkpoints = <training jobs>");
  }
  const core::EvalMatrix matrix =
      core::eval_matrix(manifest, rows, columns, ctx.pool);
  JobResult result;
  result.artifacts.push_back(ctx.artifact("_matrix.csv"));
  core::save_eval_matrix(matrix, result.artifacts.back());
  result.artifacts.push_back(ctx.artifact("_worst.csv"));
  core::save_eval_worst(matrix, result.artifacts.back());
  const std::size_t best = matrix.least_exploitable();
  result.note = format_note(
      "%zux%zu regret matrix, least exploitable %s (worst-case QoE %.2f)",
      rows.size(), columns.size(), matrix.checkpoints[best].c_str(),
      matrix.worst_case_qoe(best));
  return result;
}

/// Read the winner off an eval-matrix job's _worst.csv and republish its
/// checkpoint byte-verbatim as this job's _pensieve.ckpt — so the existing
/// checkpoint_from plumbing targets a promote job like any trainer — plus
/// an optional store version (`store_name =` / `store_version =`).
JobResult run_promote(const JobContext& ctx) {
  const std::string* matrix_from = ctx.job->find("matrix_from");
  if (matrix_from == nullptr) {
    job_fail(ctx, "promote needs matrix_from = <eval-matrix job>");
  }
  const std::vector<std::string> checkpoints =
      util::split_list(ctx.job->value_or("checkpoints", ""));
  if (checkpoints.empty()) {
    job_fail(ctx, "promote needs checkpoints = <training jobs, in the "
                  "eval-matrix column order>");
  }
  const util::CsvTable worst = or_fail(ctx, [&] {
    return util::read_csv(ctx.input_ending_with(*matrix_from, "_worst.csv"));
  });
  if (worst.rows.size() != checkpoints.size()) {
    job_fail(ctx, "checkpoints = lists " + std::to_string(checkpoints.size()) +
                      " jobs but the matrix scored " +
                      std::to_string(worst.rows.size()) + " columns");
  }
  const std::optional<std::size_t> regret =
      column_of(worst, "worst_case_regret");
  const std::optional<std::size_t> qoe = column_of(worst, "worst_case_qoe");
  if (!regret || !qoe) {
    job_fail(ctx, "matrix_from job '" + *matrix_from +
                      "' has no worst_case_regret and worst_case_qoe "
                      "columns — promote reads an eval-matrix _worst.csv");
  }
  // The promotion rule (EvalMatrix::least_exploitable, re-derived from the
  // artifact so promote stays a pure function of its inputs): argmax
  // worst-case QoE, ties to the lowest column index.
  std::size_t best = 0;
  for (std::size_t c = 1; c < worst.rows.size(); ++c) {
    if (worst.rows[c][*qoe] > worst.rows[best][*qoe]) best = c;
  }

  JobResult result;
  result.artifacts.push_back(ctx.artifact("_pensieve.ckpt"));
  or_fail(ctx, [&] {
    copy_bytes(ctx.input_ending_with(checkpoints[best], "_pensieve.ckpt"),
               result.artifacts.back());
  });
  result.artifacts.push_back(ctx.artifact("_promotion.csv"));
  {
    util::CsvWriter writer{result.artifacts.back()};
    writer.write_row(std::vector<std::string>{"winner", "worst_case_regret",
                                              "worst_case_qoe"});
    writer.write_row(std::vector<double>{static_cast<double>(best),
                                         worst.rows[best][*regret],
                                         worst.rows[best][*qoe]});
    writer.close();
  }
  if (const std::string* store_name = ctx.job->find("store_name")) {
    result.artifacts.push_back(publish_checkpoint(ctx, *store_name, "protocol",
                                                  result.artifacts.front()));
  }
  result.note = format_note("promoted %s (worst-case QoE %.2f, regret %.2f)",
                            checkpoints[best].c_str(), worst.rows[best][*qoe],
                            worst.rows[best][*regret]);
  return result;
}

}  // namespace

JobRegistry builtin_jobs() {
  JobRegistry registry;
  registry.add("gen-traces",
               "synthesize a trace corpus (generator =, count =)",
               run_gen_traces);
  registry.add("train-adversary",
               "train a PPO adversary against a protocol/sender or a flow "
               "mix (domain =, protocol =/flows =, steps =)",
               run_train_adversary);
  registry.add("record-traces",
               "roll a trained adversary out (or CEM-search) into a "
               "replayable corpus (from =, count =)",
               run_record_traces);
  registry.add("replay",
               "replay a recorded trace set against a protocol/sender "
               "(traces =)",
               run_replay);
  registry.add("serve",
               "multiplex N concurrent sessions through serve::SessionEngine "
               "(protocol =, qoe =, sessions =, traces =)",
               run_serve);
  registry.add("robustify-round",
               "one Section-2.3 adversarial-training round of Pensieve",
               run_robustify_round);
  registry.add("train-protocol",
               "plain Pensieve training for the co-training loop "
               "(corpus_from =/train_set =, init =, exploit_from =, top_k =)",
               run_train_protocol);
  registry.add("eval-matrix",
               "score every checkpoint against every adversary corpus into a "
               "regret matrix (corpora =, checkpoints =)",
               run_eval_matrix);
  registry.add("promote",
               "republish the least-exploitable checkpoint, optionally into "
               "the campaign store (matrix_from =, checkpoints =)",
               run_promote);
  return registry;
}

}  // namespace netadv::exp
