#include "core/recorder.hpp"

#include "cc/bbr.hpp"
#include "core/link_control.hpp"

#include <cmath>
#include <stdexcept>

namespace netadv::core {

namespace {

/// Drive one episode; `after_step(action)` runs after each env step.
template <typename AfterStep>
void run_episode(rl::PpoAgent& agent, rl::Env& env, util::Rng& rng,
                 bool deterministic, const AfterStep& after_step) {
  rl::Vec obs = env.reset(rng);
  while (true) {
    const rl::Vec action = deterministic ? agent.act_deterministic(obs)
                                         : agent.act_stochastic(obs, rng);
    rl::StepResult result = env.step(action, rng);
    after_step(action);
    if (result.done) break;
    obs = std::move(result.observation);
  }
}

/// The env's last episode as a replayable Trace, one segment per chunk.
trace::Trace abr_episode_trace(const AbrAdversaryEnv& env) {
  trace::Trace t;
  for (double bw : env.episode_bandwidths()) {
    t.append({env.chunk_duration_s(), bw, 80.0, 0.0});
  }
  return t;
}

/// The fan-out every batch function below shares: one child seed per task,
/// drawn from `seed` on the caller in task order (the seeds
/// Rng::fork_streams would use), then `one(i, seed_i)` across `pool`
/// (inline when null) with results reduced by task index — so a batch is
/// bit-identical at every thread count, including no pool at all.
template <typename One>
auto fan_out(std::size_t count, std::uint64_t seed, util::ThreadPool* pool,
             const One& one) {
  util::Rng master{seed};
  std::vector<std::uint64_t> seeds(count);
  for (auto& s : seeds) s = master();
  return util::parallel_map(pool, count, [&](std::size_t i) {
    return one(i, seeds[i]);
  });
}

/// The per-epoch loop of every link-adversary recorder: after each step,
/// record the physical conditions and the trace segment, then let
/// `columns(raw)` append the recorder's own columns for that epoch.
template <typename Env, typename Columns>
void record_link_episode(rl::PpoAgent& agent, Env& env, util::Rng& rng,
                         bool deterministic, LinkEpisodeRecord& record,
                         const Columns& columns) {
  const rl::ActionSpec spec = env.action_spec();
  run_episode(agent, env, rng, deterministic, [&](const rl::Vec& raw) {
    const rl::Vec physical = spec.to_physical(raw);
    record.bandwidth_mbps.push_back(physical[0]);
    record.latency_ms.push_back(physical[1]);
    record.loss_rate.push_back(physical[2]);
    record.trace.append({env.params().epoch_s, physical[0], physical[1],
                         physical[2]});
    columns(raw);
  });
}

}  // namespace

std::vector<trace::Trace> record_abr_traces(rl::PpoAgent& agent,
                                            AbrAdversaryEnv& env,
                                            std::size_t count, util::Rng& rng,
                                            bool deterministic) {
  std::vector<trace::Trace> traces;
  traces.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    run_episode(agent, env, rng, deterministic, [](const rl::Vec&) {});
    traces.push_back(abr_episode_trace(env));
  }
  return traces;
}

std::vector<trace::Trace> record_abr_traces(
    const rl::PpoAgent& agent, const abr::VideoManifest& manifest,
    const abr::ProtocolFactory& make_protocol,
    const AbrAdversaryEnv::Params& params,
    std::size_t count, std::uint64_t seed, bool deterministic,
    util::ThreadPool* pool) {
  return fan_out(count, seed, pool, [&](std::size_t, std::uint64_t s) {
    const std::unique_ptr<abr::AbrProtocol> protocol = make_protocol();
    if (!protocol) {
      throw std::invalid_argument{"record_abr_traces: factory returned null"};
    }
    AbrAdversaryEnv env{manifest, *protocol, params};
    rl::PpoAgent clone = agent;
    util::Rng rng{s};
    run_episode(clone, env, rng, deterministic, [](const rl::Vec&) {});
    return abr_episode_trace(env);
  });
}

AbrEpisodeRecord record_abr_episode(rl::PpoAgent& agent, AbrAdversaryEnv& env,
                                    util::Rng& rng, bool deterministic) {
  AbrEpisodeRecord record;
  run_episode(agent, env, rng, deterministic, [](const rl::Vec&) {});
  record.bandwidth_mbps = env.episode_bandwidths();
  for (std::size_t q : env.episode_qualities()) {
    record.bitrate_kbps.push_back(env.manifest().bitrate_kbps(q));
  }
  record.buffer_s = env.episode_buffers();
  record.rebuffer_s = env.episode_rebuffers();

  // Exact episode QoE from the recorded choices.
  std::vector<double> bitrates_mbps;
  for (double kbps : record.bitrate_kbps) bitrates_mbps.push_back(kbps / 1000.0);
  record.total_qoe =
      abr::total_qoe(bitrates_mbps, record.rebuffer_s, env.params().qoe);
  record.trace = abr_episode_trace(env);
  return record;
}

CcEpisodeRecord record_cc_episode(rl::PpoAgent& agent, CcAdversaryEnv& env,
                                  util::Rng& rng, bool deterministic) {
  CcEpisodeRecord record;
  double util_sum = 0.0;
  record_link_episode(agent, env, rng, deterministic, record,
                      [&](const rl::Vec& raw) {
    record.raw_bandwidth.push_back(raw[0]);
    record.raw_latency.push_back(raw[1]);
    record.raw_loss.push_back(raw[2]);
    if (const auto* bbr = dynamic_cast<const cc::BbrSender*>(env.sender())) {
      record.bbr_mode.push_back(static_cast<int>(bbr->mode()));
    } else {
      record.bbr_mode.push_back(-1);
    }
    const cc::MultiFlowRunner::Interval& interval = env.last_interval();
    const cc::FlowStats& flow = interval.flows[0];
    const double utilization = interval.aggregate_utilization();
    record.throughput_mbps.push_back(flow.throughput_mbps(interval.duration_s));
    record.utilization.push_back(utilization);
    record.queue_delay_s.push_back(flow.mean_queue_delay_s);
    util_sum += utilization;
  });
  record.mean_utilization =
      util_sum / static_cast<double>(record.utilization.size());
  return record;
}

std::vector<CcEpisodeRecord> record_cc_episodes(
    const rl::PpoAgent& agent, const CcAdversaryEnv::Params& params,
    const cc::SenderFactory& make_sender, std::size_t count,
    std::uint64_t seed, bool deterministic, util::ThreadPool* pool) {
  return fan_out(count, seed, pool, [&](std::size_t, std::uint64_t s) {
    CcAdversaryEnv env{params, make_sender};
    rl::PpoAgent clone = agent;
    util::Rng rng{s};
    return record_cc_episode(clone, env, rng, deterministic);
  });
}

std::vector<FairnessEpisodeRecord> record_fairness_episodes(
    const rl::PpoAgent& agent, const FairnessAdversaryEnv::Params& params,
    std::vector<cc::SenderFactory> factories,
    std::size_t count, std::uint64_t seed, bool deterministic,
    util::ThreadPool* pool) {
  return fan_out(count, seed, pool, [&](std::size_t, std::uint64_t s) {
    FairnessAdversaryEnv env{params, factories};
    rl::PpoAgent clone = agent;
    util::Rng rng{s};
    FairnessEpisodeRecord record;
    record.flow_throughput_mbps.resize(env.mix_flow_count());
    double jain_sum = 0.0;
    double victim_sum = 0.0;
    double util_sum = 0.0;
    record_link_episode(clone, env, rng, deterministic, record,
                        [&](const rl::Vec& /*raw*/) {
      const cc::MultiFlowRunner::Interval& interval = env.last_interval();
      for (std::size_t f = 0; f < env.mix_flow_count(); ++f) {
        record.flow_throughput_mbps[f].push_back(
            f < interval.flows.size()
                ? interval.flows[f].throughput_mbps(interval.duration_s)
                : 0.0);
      }
      record.jain.push_back(env.last_jain());
      record.victim_utilization.push_back(env.last_victim_utilization());
      record.aggregate_utilization.push_back(interval.aggregate_utilization());
      jain_sum += env.last_jain();
      victim_sum += env.last_victim_utilization();
      util_sum += interval.aggregate_utilization();
    });
    record.late_join_time_s = env.late_join_time_s();
    const auto n = static_cast<double>(record.jain.size());
    record.mean_jain = jain_sum / n;
    record.mean_victim_utilization = victim_sum / n;
    record.mean_aggregate_utilization = util_sum / n;
    return record;
  });
}

CcReplayResult replay_cc_trace(const std::vector<cc::SenderFactory>& mix,
                               const trace::Trace& t,
                               const cc::LinkSim::Params& link_params,
                               double stagger_s, std::uint64_t seed) {
  if (t.empty()) throw std::invalid_argument{"replay_cc_trace: empty trace"};
  // Flow i starts at i * stagger_s, so it must not precede t = 0.
  ParamCheck{"replay_cc_trace"}(stagger_s >= 0.0 && std::isfinite(stagger_s),
                                "stagger_s", stagger_s,
                                "is not a finite number >= 0");
  std::vector<std::unique_ptr<cc::CcSender>> senders;
  std::vector<cc::CcSender*> raw;
  std::vector<double> starts;
  for (std::size_t i = 0; i < mix.size(); ++i) {
    senders.push_back(mix[i]());
    if (!senders.back()) {
      throw std::invalid_argument{"replay_cc_trace: factory returned null"};
    }
    raw.push_back(senders.back().get());
    starts.push_back(static_cast<double>(i) * stagger_s);
  }
  cc::MultiFlowRunner runner{raw, link_params, seed, starts};

  CcReplayResult result;
  result.mean_flow_throughput_mbps.assign(mix.size(), 0.0);
  double now = 0.0;
  double jain_sum = 0.0;
  double victim_sum = 0.0;
  double util_sum = 0.0;
  for (const auto& segment : t.segments()) {
    runner.set_conditions({segment.bandwidth_mbps, segment.latency_ms,
                           segment.loss_rate});
    now += segment.duration_s;
    runner.run_until(now);
    const cc::MultiFlowRunner::Interval interval = runner.collect();
    const double utilization = interval.aggregate_utilization();
    result.utilization.push_back(utilization);
    jain_sum += cc::jain_fairness_index(interval.throughputs_mbps());
    victim_sum += interval.utilization(0);
    util_sum += utilization;
    for (std::size_t f = 0; f < mix.size(); ++f) {
      result.mean_flow_throughput_mbps[f] +=
          interval.flows[f].throughput_mbps(interval.duration_s);
    }
  }
  const auto n = static_cast<double>(t.size());
  result.mean_jain = jain_sum / n;
  result.mean_victim_utilization = victim_sum / n;
  result.mean_utilization = util_sum / n;
  for (double& v : result.mean_flow_throughput_mbps) v /= n;
  return result;
}

std::vector<CcReplayResult> replay_cc_traces(
    const std::vector<cc::SenderFactory>& mix,
    const std::vector<trace::Trace>& traces,
    const cc::LinkSim::Params& link_params, double stagger_s,
    std::uint64_t seed, util::ThreadPool* pool) {
  return fan_out(traces.size(), seed, pool,
                 [&](std::size_t i, std::uint64_t link_seed) {
    return replay_cc_trace(mix, traces[i], link_params, stagger_s, link_seed);
  });
}

}  // namespace netadv::core
