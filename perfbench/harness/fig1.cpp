// fig1 — the paper's Figure-1 pipeline at reduced size: train Pensieve on a
// mixed fcc/3g/uniform corpus, train adversaries against mpc and pensieve
// concurrently, record traces with each, and replay pensieve/mpc/bb on the
// two adversarial sets and a random set.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <optional>

#include "abr/bb.hpp"
#include "abr/mpc.hpp"
#include "abr/pensieve.hpp"
#include "abr/runner.hpp"
#include "core/recorder.hpp"
#include "core/trainer.hpp"
#include "probes.hpp"
#include "trace/generators.hpp"
#include "util/stats.hpp"
#include "util/thread_pool.hpp"
#include "workload.hpp"

namespace perfbench {

using namespace netadv;

namespace {

struct Fig1Size {
  std::size_t corpus_per_generator;
  std::size_t pensieve_steps;
  std::size_t adversary_steps;
  std::size_t traces_per_set;  ///< recorded per adversary
  std::size_t random_traces;   ///< the random set, whose replays are timed
};

// The random set is the larger one so that every round times 3456
// decisions, 170 of them beyond p95.
constexpr Fig1Size kFull{60, 2048, 2048, 8, 24};
constexpr Fig1Size kTiny{4, 512, 256, 3, 3};

class Fig1 final : public Workload {
 public:
  explicit Fig1(const Options& options)
      : options_(options), size_(options.tiny ? kTiny : kFull) {}

  void setup() override {
    abr::VideoManifest::Params mp;
    mp.size_variation = 0.0;
    manifest_ = abr::VideoManifest{mp};
    util::Rng rng{options_.seed};
    const trace::FccLikeGenerator fcc{{}};
    const trace::Hsdpa3gLikeGenerator tg3{{}};
    const trace::UniformRandomGenerator uni{{}};
    corpus_.clear();
    for (const trace::TraceGenerator* g :
         {static_cast<const trace::TraceGenerator*>(&fcc),
          static_cast<const trace::TraceGenerator*>(&tg3),
          static_cast<const trace::TraceGenerator*>(&uni)}) {
      auto ts = g->generate_many(size_.corpus_per_generator, rng);
      corpus_.insert(corpus_.end(), ts.begin(), ts.end());
    }
    util::Rng random_rng{options_.seed + 5};
    random_set_ = uni.generate_many(size_.random_traces, random_rng);
    pensieve_init_.emplace(abr::make_pensieve_agent(manifest_, options_.seed));
  }

  RoundResult round(bool traced) override;

 private:
  struct Phase {
    double wall_s = 0.0;
    std::size_t lanes = 1;
    Lane lane;
  };

  /// Run one pipeline phase and collect the lanes its probes filled.
  template <typename F>
  Phase phase(std::size_t tasks, F&& body) {
    util::ThreadPool& pool = util::ThreadPool::global();
    Phase p;
    p.lanes = std::max<std::size_t>(
        1, std::min(tasks, pool.thread_count()));
    const Clock::time_point start = Clock::now();
    body();
    p.wall_s = seconds_since(start);
    p.lane = take_lanes();
    lanes_.add(p.lane);
    return p;
  }

  const Options options_;
  const Fig1Size size_;
  abr::VideoManifest manifest_;
  std::vector<trace::Trace> corpus_;
  std::vector<trace::Trace> random_set_;
  std::optional<rl::PpoAgent> pensieve_init_;
  Lane lanes_;  // this round's lanes, merged over phases
  bool shape_printed_ = false;
};

RoundResult Fig1::round(bool traced) {
  util::ThreadPool& pool = util::ThreadPool::global();
  const abr::VideoManifest& m = manifest_;
  RoundResult r;
  FailureTally tally;
  reset_lanes();
  lanes_ = Lane{};
  auto layer = [&](const char* key, double seconds) { r.layers[key] += seconds; };
  auto decisions_layer = [&](const Phase& p) {
    for (std::size_t k = 0; k < kProtoCount; ++k) {
      const auto proto = static_cast<Proto>(k);
      layer(("abr.protocol." + std::string{proto_name(proto)} + ".decide_s")
                .c_str(),
            p.lane.decide_s[k] / static_cast<double>(p.lanes));
    }
  };
  auto decide_total = [](const Phase& p) {
    double s = 0.0;
    for (double d : p.lane.decide_s) s += d;
    return s;
  };

  const TimedSpan timed;

  // (1) Pensieve on the mixed corpus; the gradient step fans out over the
  // pool, env stepping and rollout inference stay on this thread.
  rl::PpoAgent pensieve = *pensieve_init_;
  pensieve.set_thread_pool(&pool);
  abr::PensieveEnv pensieve_env{m, corpus_};
  TracedEnv traced_pensieve_env{pensieve_env};
  const Phase train_pensieve = phase(1, [&] {
    if (traced) {
      pensieve.train(traced_pensieve_env, size_.pensieve_steps,
                     traced_pensieve_env.callback());
    } else {
      pensieve.train(pensieve_env, size_.pensieve_steps);
    }
  });
  pensieve.set_thread_pool(nullptr);
  if (traced) {
    const Lane& l = train_pensieve.lane;
    layer("abr.sim_s", l.env_step_s);
    layer("rl.update_s", l.update_s);
    layer("rl.rollout_infer_s", train_pensieve.wall_s - l.env_step_s - l.update_s);
  }

  // (2) Two adversaries, trained concurrently on the pool, each against a
  // probed target (so the target's decisions inside env.step are split out).
  abr::RobustMpc mpc;
  abr::PensievePolicy pensieve_policy{pensieve};
  ProbedProtocol mpc_target{mpc, kMpc, tally, traced};
  ProbedProtocol pensieve_target{pensieve_policy, kPensieve, tally, traced};
  core::AbrAdversaryEnv env_mpc{m, mpc_target};
  core::AbrAdversaryEnv env_pen{m, pensieve_target};
  TracedEnv traced_mpc{env_mpc};
  TracedEnv traced_pen{env_pen};
  const rl::PpoConfig adv_config = core::abr_adversary_ppo_config();
  const std::uint64_t adv_seeds[2] = {options_.seed * 2 + 11,
                                      options_.seed * 2 + 57};
  std::vector<rl::PpoAgent> adversaries;
  const Phase train_adversaries = phase(2, [&] {
    // core::train_adversaries' fan-out, with update callbacks installed.
    rl::Env* envs[2] = {&env_mpc, &env_pen};
    TracedEnv* traced_envs[2] = {&traced_mpc, &traced_pen};
    std::vector<std::optional<rl::PpoAgent>> slots(2);
    pool.parallel_for(2, [&](std::size_t i) {
      rl::TrainCallback callback =
          traced ? traced_envs[i]->callback() : rl::TrainCallback{};
      rl::Env* env = traced ? traced_envs[i] : envs[i];
      slots[i].emplace(core::train_adversary(*env, adv_config,
                                             size_.adversary_steps,
                                             adv_seeds[i], callback, &pool));
    });
    for (auto& slot : slots) adversaries.push_back(std::move(*slot));
  });
  if (traced) {
    const Phase& p = train_adversaries;
    const double n = static_cast<double>(p.lanes);
    decisions_layer(p);
    layer("abr.sim_s", (p.lane.env_step_s - p.lane.env_decide_s) / n);
    layer("rl.update_s", p.lane.update_s / n);
    layer("rl.rollout_infer_s",
          p.wall_s - (p.lane.env_step_s + p.lane.update_s) / n);
  }

  // (3) Record a corpus with each adversary against a fresh probed target.
  const abr::ProtocolFactory make_mpc = [] {
    return std::unique_ptr<abr::AbrProtocol>(new abr::RobustMpc{});
  };
  const abr::ProtocolFactory make_bb = [] {
    return std::unique_ptr<abr::AbrProtocol>(new abr::BufferBased{});
  };
  const abr::ProtocolFactory make_pensieve = [&pensieve] {
    return std::unique_ptr<abr::AbrProtocol>(
        new abr::OwnedPensievePolicy{pensieve});
  };
  const std::size_t count = size_.traces_per_set;
  std::vector<trace::Trace> sets[3];
  FailureTally record_tally;
  auto record = [&](std::size_t a, const abr::ProtocolFactory& make,
                    Proto proto, std::uint64_t seed) {
    const Phase p = phase(count, [&] {
      sets[a] = core::record_abr_traces(
          adversaries[a], m, probed_factory(make, proto, record_tally, traced),
          core::AbrAdversaryEnv::Params{}, count, seed,
          /*deterministic=*/false, &pool);
    });
    if (traced) {
      decisions_layer(p);
      layer("core.record.self_s",
            p.wall_s - decide_total(p) / static_cast<double>(p.lanes));
    }
  };
  record(0, make_mpc, kMpc, options_.seed + 3);
  record(1, make_pensieve, kPensieve, options_.seed + 4);
  sets[2] = random_set_;

  // (4) Replay every protocol on every set.
  const abr::ProtocolFactory replay_makers[3] = {make_pensieve, make_mpc,
                                                 make_bb};
  const Proto replay_protos[3] = {kPensieve, kMpc, kBb};
  std::vector<double> qoe[3][3];  // [set][protocol]
  FailureTally replay_tally;
  for (std::size_t s = 0; s < 3; ++s) {
    for (std::size_t k = 0; k < 3; ++k) {
      abr::ProtocolFactory make = replay_makers[k];
      if (options_.inject_bad_decision && s == 2 && replay_protos[k] == kBb) {
        make = ladder_breaking_factory(make);
      }
      // Decision latencies come from the replays of the random set, timed
      // in every round: pensieve, mpc and bb in equal thirds, so p50 is
      // pensieve's median and p95 lies inside mpc's main mode (its 85th
      // percentile, below the few slow mpc decisions). The adversarial
      // sets stay out: the share of their mpc decisions that run slow
      // (140-160 us against ~100 us) depends on what the seed's adversary
      // learned, and it straddles the upper percentiles.
      const bool latencies = s == 2;
      const Phase p = phase(sets[s].size(), [&] {
        qoe[s][k] = abr::qoe_per_trace(
            probed_factory(make, replay_protos[k], replay_tally,
                           traced || latencies),
            m, sets[s], {}, &pool);
      });
      if (latencies) {
        r.latency_s.insert(r.latency_s.end(), p.lane.latency_s.begin(),
                           p.lane.latency_s.end());
      }
      if (traced) {
        decisions_layer(p);
        layer("core.replay.self_s",
              p.wall_s - decide_total(p) / static_cast<double>(p.lanes));
      }
    }
  }

  timed.stop(r);

  // Output checks: every recorded trace has the manifest's chunk count and
  // every replayed QoE is finite; a protocol instance that left the ladder
  // fails its operation too.
  std::size_t failed = 0;
  for (std::size_t a = 0; a < 2; ++a) {
    if (sets[a].size() < count) failed += count - sets[a].size();
    for (const trace::Trace& t : sets[a]) {
      if (t.size() != m.num_chunks()) ++failed;
      for (const auto& seg : t.segments()) hash_double(r.digest, seg.bandwidth_mbps);
    }
  }
  for (std::size_t s = 0; s < 3; ++s) {
    for (std::size_t k = 0; k < 3; ++k) {
      if (qoe[s][k].size() != sets[s].size()) {
        failed += sets[s].size();
        continue;
      }
      for (double v : qoe[s][k]) {
        if (!std::isfinite(v)) ++failed;
        hash_double(r.digest, v);
      }
    }
  }
  failed += record_tally.bad_instances.load() + replay_tally.bad_instances.load();
  // The two adversary-training targets are not operations; a bad decision
  // there still fails the round.
  failed += tally.bad_instances.load();
  const std::size_t replayed = 3 * (2 * count + random_set_.size());
  r.attempted = 2 * count + replayed;
  r.failed = std::min(failed, r.attempted);
  r.decisions = r.latency_s.size();

  if (traced) {
    r.counts["rl.env_steps"] = static_cast<double>(lanes_.env_steps);
    r.counts["rl.updates"] = static_cast<double>(lanes_.updates);
    for (std::size_t k = 0; k < kProtoCount; ++k) {
      r.counts["abr.protocol." + std::string{proto_name(static_cast<Proto>(k))} +
               ".decisions"] = static_cast<double>(lanes_.decisions[k]);
    }
    r.counts["core.traces_recorded"] = static_cast<double>(2 * count);
    r.counts["core.traces_replayed"] = static_cast<double>(replayed);
  }

  // Figure 1's shape checks depend on the seed and the reduced budgets, so
  // they are printed, never counted.
  if (!shape_printed_) {
    shape_printed_ = true;
    const double mpc_on_own = util::mean(qoe[0][1]);
    const double pen_on_mpc = util::mean(qoe[0][0]);
    const double pen_on_own = util::mean(qoe[1][0]);
    const double mpc_on_pen = util::mean(qoe[1][1]);
    std::fprintf(stderr,
                 "fig1 shape: MPC worse than Pensieve on MPC-targeted traces: "
                 "%s (%.3f vs %.3f); Pensieve worse than MPC on "
                 "Pensieve-targeted traces: %s (%.3f vs %.3f)\n",
                 mpc_on_own < pen_on_mpc ? "YES" : "NO", mpc_on_own,
                 pen_on_mpc, pen_on_own < mpc_on_pen ? "YES" : "NO",
                 pen_on_own, mpc_on_pen);
  }
  return r;
}

}  // namespace

std::unique_ptr<Workload> make_fig1(const Options& options) {
  return std::make_unique<Fig1>(options);
}

}  // namespace perfbench
