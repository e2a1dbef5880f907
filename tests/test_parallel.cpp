// Determinism gates for the parallel execution layer: the same seed must
// produce bit-identical results at thread counts 1, 2, and 8 — replayed QoE
// vectors, CC replay metrics, trained PPO parameters through the
// row-partitioned gradient step, concurrently trained adversaries, and
// batch-recorded adversarial corpora. Also covers ThreadPool semantics
// (coverage, ordering, exception propagation) and the batched gemm forward
// path.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>
#include <stdexcept>
#include <vector>

#include "abr/bb.hpp"
#include "abr/mpc.hpp"
#include "abr/runner.hpp"
#include "cc/cubic.hpp"
#include "core/recorder.hpp"
#include "core/trainer.hpp"
#include "rl/distributions.hpp"
#include "rl/mlp.hpp"
#include "rl/ppo.hpp"
#include "rl/rollout.hpp"
#include "rl/toy_envs.hpp"
#include "trace/generators.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace netadv;

const std::size_t kThreadCounts[] = {1, 2, 8};

TEST(ThreadPool, CoversEveryIndexExactlyOnce) {
  util::ThreadPool pool{4};
  std::vector<std::atomic<int>> hits(257);
  pool.parallel_for(hits.size(), [&](std::size_t i) { ++hits[i]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, MapReturnsResultsInIndexOrder) {
  for (std::size_t threads : kThreadCounts) {
    util::ThreadPool pool{threads};
    const auto out =
        pool.parallel_map(100, [](std::size_t i) { return 3 * i + 1; });
    ASSERT_EQ(out.size(), 100u);
    for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], 3 * i + 1);
  }
}

TEST(ThreadPool, PropagatesTaskExceptions) {
  util::ThreadPool pool{4};
  EXPECT_THROW(pool.parallel_for(64,
                                 [](std::size_t i) {
                                   if (i == 13) {
                                     throw std::runtime_error{"boom"};
                                   }
                                 }),
               std::runtime_error);
  // The pool must stay usable after an exceptional batch.
  const auto out = pool.parallel_map(8, [](std::size_t i) { return i; });
  EXPECT_EQ(out.size(), 8u);
}

TEST(ThreadPool, ReentrantParallelForRunsInline) {
  util::ThreadPool pool{4};
  std::atomic<int> total{0};
  pool.parallel_for(8, [&](std::size_t) {
    pool.parallel_for(8, [&](std::size_t) { ++total; });
  });
  EXPECT_EQ(total.load(), 64);
}

TEST(ThreadPool, ThreadSafeLoggingSmoke) {
  // No assertion beyond "does not crash/TSan-trip": many threads logging.
  util::ThreadPool pool{8};
  pool.parallel_for(64, [](std::size_t i) {
    util::log_debug("parallel log line %zu", i);
  });
}

TEST(RngForkStreams, IndependentOfConsumptionOrder) {
  util::Rng a{42};
  util::Rng b{42};
  auto streams_a = a.fork_streams(4);
  auto streams_b = b.fork_streams(4);
  // Consume in different orders; each stream still yields the same values.
  std::vector<std::uint64_t> first_a(4), first_b(4);
  for (std::size_t i = 0; i < 4; ++i) first_a[i] = streams_a[i]();
  for (std::size_t i = 4; i-- > 0;) first_b[i] = streams_b[i]();
  EXPECT_EQ(first_a, first_b);
}

/// `net`'s output for `input` alone: a one-row forward_rows.
rl::Vec forward_one(const rl::Mlp& net, const rl::Vec& input) {
  rl::Mlp::Arena row;
  row.reset(net, 1);
  row.set_input(0, input);
  net.forward_rows(row, 0, 1);
  const auto out = row.output(0);
  return {out.begin(), out.end()};
}

TEST(BatchedForward, MatchesPerSampleForwardBitExactly) {
  // One 17-row forward (four 4-sample gemm tiles and a remainder row) must
  // equal each input's one-row forward bit for bit.
  util::Rng rng{7};
  rl::Mlp net{{11, 32, 16, 5}, 0.01, rng};
  const std::size_t rows = 17;
  rl::Mlp::Arena arena;
  arena.reset(net, rows);
  std::vector<rl::Vec> inputs;
  for (std::size_t n = 0; n < rows; ++n) {
    rl::Vec x(11);
    for (auto& v : x) v = rng.uniform(-2.0, 2.0);
    arena.set_input(n, x);
    inputs.push_back(std::move(x));
  }
  net.forward_rows(arena, 0, rows);
  for (std::size_t n = 0; n < rows; ++n) {
    const rl::Vec single = forward_one(net, inputs[n]);
    const auto batched = arena.output(n);
    ASSERT_EQ(batched.size(), single.size());
    for (std::size_t j = 0; j < single.size(); ++j) {
      EXPECT_EQ(batched[j], single[j]);  // bit-identical, not just close
    }
  }
}

TEST(ParallelArena, BlockForwardsOnAPoolMatchPerSampleForward) {
  // The PPO update's phase-(a) pattern: tasks on a pool each forward their
  // own block of rows of one shared arena. Every row must equal the one-row
  // forward of its input bit for bit, and the tasks must not race.
  util::Rng rng{11};
  rl::Mlp net{{7, 13, 6, 3}, 0.5, rng};
  const std::size_t rows = 37;
  const std::size_t block = 8;
  std::vector<rl::Vec> inputs(rows, rl::Vec(7));
  for (auto& x : inputs) {
    for (auto& v : x) v = rng.uniform(-2.0, 2.0);
  }
  rl::Mlp::Arena arena;
  arena.reset(net, rows);
  util::ThreadPool pool{3};
  pool.parallel_for((rows + block - 1) / block, [&](std::size_t b) {
    const std::size_t lo = b * block;
    const std::size_t hi = std::min(rows, lo + block);
    for (std::size_t k = lo; k < hi; ++k) arena.set_input(k, inputs[k]);
    net.forward_rows(arena, lo, hi);
  });
  for (std::size_t k = 0; k < rows; ++k) {
    const rl::Vec single = forward_one(net, inputs[k]);
    const auto row = arena.output(k);
    ASSERT_EQ(row.size(), single.size());
    for (std::size_t j = 0; j < single.size(); ++j) {
      ASSERT_EQ(row[j], single[j]) << "row " << k;
    }
  }
}

std::vector<double> replay_qoe_at(std::size_t threads,
                                  const abr::VideoManifest& manifest,
                                  const std::vector<trace::Trace>& traces) {
  util::ThreadPool pool{threads};
  return abr::qoe_per_trace(
      []() -> std::unique_ptr<abr::AbrProtocol> {
        return std::make_unique<abr::RobustMpc>();
      },
      manifest, traces, {}, &pool);
}

TEST(ParallelReplay, AbrQoeIdenticalAcrossThreadCounts) {
  const abr::VideoManifest manifest;
  trace::UniformRandomGenerator gen{{}};
  util::Rng rng{2024};
  const auto traces = gen.generate_many(24, rng);

  // Sequential single-instance replay is the reference result.
  abr::RobustMpc mpc;
  const auto reference = abr::qoe_per_trace(mpc, manifest, traces);

  for (std::size_t threads : kThreadCounts) {
    const auto parallel = replay_qoe_at(threads, manifest, traces);
    ASSERT_EQ(parallel.size(), reference.size());
    for (std::size_t i = 0; i < reference.size(); ++i) {
      EXPECT_EQ(parallel[i], reference[i])
          << "trace " << i << " at " << threads << " threads";
    }
  }
}

TEST(ParallelReplay, CcReplayIdenticalAcrossThreadCounts) {
  trace::UniformRandomGenerator gen{{}};
  util::Rng rng{99};
  std::vector<trace::Trace> traces;
  for (const auto& full : gen.generate_many(8, rng)) {
    // Keep only a few segments per trace so the packet-level sim stays cheap.
    const std::size_t keep = std::min<std::size_t>(6, full.size());
    std::vector<trace::Segment> head(full.segments().begin(),
                                     full.segments().begin() +
                                         static_cast<std::ptrdiff_t>(keep));
    traces.emplace_back(std::move(head));
  }

  auto replay_at = [&](std::size_t threads) {
    util::ThreadPool pool{threads};
    return core::replay_cc_traces(
        {[]() -> std::unique_ptr<cc::CcSender> {
          return std::make_unique<cc::CubicSender>();
        }},
        traces, {}, 0.0, 5, &pool);
  };

  const auto reference = replay_at(1);
  for (std::size_t threads : kThreadCounts) {
    const auto results = replay_at(threads);
    ASSERT_EQ(results.size(), reference.size());
    for (std::size_t i = 0; i < reference.size(); ++i) {
      EXPECT_EQ(results[i].mean_utilization, reference[i].mean_utilization);
      EXPECT_EQ(results[i].mean_flow_throughput_mbps,
                reference[i].mean_flow_throughput_mbps);
      EXPECT_EQ(results[i].utilization, reference[i].utilization);
    }
  }
}

/// Every parameter of `agent` must equal `reference` bit for bit.
void expect_identical_agents(const rl::PpoAgent& agent,
                             const rl::PpoAgent& reference,
                             std::size_t threads) {
  const auto ref_actor = reference.actor().params();
  const auto actor = agent.actor().params();
  ASSERT_EQ(actor.size(), ref_actor.size());
  for (std::size_t i = 0; i < actor.size(); ++i) {
    ASSERT_EQ(actor[i], ref_actor[i])
        << "actor param " << i << " differs at " << threads << " threads";
  }
  const auto ref_critic = reference.critic().params();
  const auto critic = agent.critic().params();
  ASSERT_EQ(critic.size(), ref_critic.size());
  for (std::size_t i = 0; i < critic.size(); ++i) {
    ASSERT_EQ(critic[i], ref_critic[i])
        << "critic param " << i << " differs at " << threads << " threads";
  }
  ASSERT_EQ(agent.log_std(), reference.log_std())
      << "log_std differs at " << threads << " threads";
}

/// PPO trained on a toy env with the gradient step on `pool`. `n_steps`
/// 128 splits into four full minibatches of 32; 100 leaves a ragged final
/// minibatch of 4.
rl::PpoAgent train_ppo_at(util::ThreadPool* pool, bool continuous,
                          std::size_t n_steps = 128) {
  util::set_log_level(util::LogLevel::kWarn);
  rl::PpoConfig cfg;
  cfg.hidden_sizes = {16, 8};
  cfg.n_steps = n_steps;
  cfg.minibatch_size = 32;
  cfg.epochs = 3;
  cfg.ent_coef = 0.01;
  std::unique_ptr<rl::Env> env;
  if (continuous) {
    env = std::make_unique<rl::TargetChaseEnv>(16);
  } else {
    env = std::make_unique<rl::ContextualBanditEnv>(2, 3, 8);
  }
  rl::PpoAgent agent{env->observation_size(), env->action_spec(), cfg, 31};
  agent.set_thread_pool(pool);
  agent.train(*env, 3 * n_steps);
  return agent;
}

TEST(ParallelGradients, PpoDiscreteGradientsIdenticalAcrossThreadCounts) {
  const rl::PpoAgent reference = train_ppo_at(nullptr, /*continuous=*/false);
  for (std::size_t threads : kThreadCounts) {
    util::ThreadPool pool{threads};
    const rl::PpoAgent agent = train_ppo_at(&pool, false);
    expect_identical_agents(agent, reference, threads);
  }
}

TEST(ParallelGradients, PpoContinuousGradientsIdenticalAcrossThreadCounts) {
  // Continuous head also exercises the per-sample log_std terms.
  const rl::PpoAgent reference = train_ppo_at(nullptr, /*continuous=*/true);
  for (std::size_t threads : kThreadCounts) {
    util::ThreadPool pool{threads};
    const rl::PpoAgent agent = train_ppo_at(&pool, true);
    expect_identical_agents(agent, reference, threads);
  }
}

TEST(ParallelGradients, RaggedFinalMinibatchIdenticalAcrossThreadCounts) {
  // 100 = 3 * 32 + 4: the last minibatch of every epoch has 4 samples, fewer
  // than the larger pools have threads.
  for (const bool continuous : {false, true}) {
    const rl::PpoAgent reference = train_ppo_at(nullptr, continuous, 100);
    for (std::size_t threads : kThreadCounts) {
      util::ThreadPool pool{threads};
      const rl::PpoAgent agent = train_ppo_at(&pool, continuous, 100);
      expect_identical_agents(agent, reference, threads);
    }
  }
}

/// One rollout of random observations scored by `agent` as train() scores
/// them, with random advantages: input for run_update_epochs alone.
rl::RolloutBuffer scored_rollout(rl::PpoAgent& agent, std::size_t steps) {
  util::Rng rng{2025};
  rl::RolloutBuffer buffer{steps};
  for (std::size_t i = 0; i < steps; ++i) {
    rl::Transition t;
    t.observation.resize(agent.observation_size());
    for (auto& v : t.observation) v = rng.uniform(-1.0, 1.0);
    const rl::Vec head = forward_one(agent.actor(), t.observation);
    t.value = forward_one(agent.critic(), t.observation)[0];
    if (agent.action_spec().type == rl::ActionType::kDiscrete) {
      const std::size_t a = rl::Categorical::sample(head, rng);
      t.action = {static_cast<double>(a)};
      t.log_prob = rl::Categorical::log_prob(head, a);
    } else {
      t.action = rl::DiagGaussian::sample(head, agent.log_std(), rng);
      t.log_prob = rl::DiagGaussian::log_prob(head, agent.log_std(), t.action);
    }
    t.advantage = rng.uniform(-1.0, 1.0);
    t.return_ = t.value + t.advantage;
    buffer.add(std::move(t));
  }
  return buffer;
}

TEST(ParallelGradients, RunUpdateEpochsIdenticalOnPoolsOf1To3Threads) {
  // The update epochs alone, on one rollout: minibatches of 36 split into
  // sample blocks with a ragged last block, and the final minibatch of each
  // epoch (100 = 2 * 36 + 28) is ragged too. Pools of 1, 2 and 3 threads
  // schedule the blocks differently and must train identical parameters.
  util::set_log_level(util::LogLevel::kWarn);
  rl::PpoConfig cfg;
  cfg.hidden_sizes = {16, 8};
  cfg.n_steps = 100;
  cfg.minibatch_size = 36;
  cfg.epochs = 3;
  cfg.ent_coef = 0.01;
  const rl::ContextualBanditEnv bandit{2, 3, 8};
  const rl::TargetChaseEnv chase{16};
  for (const rl::Env* shape : {static_cast<const rl::Env*>(&bandit),
                               static_cast<const rl::Env*>(&chase)}) {
    const auto updated_on = [&](std::size_t threads) {
      rl::PpoAgent agent{shape->observation_size(), shape->action_spec(), cfg,
                         43};
      const rl::RolloutBuffer rollout = scored_rollout(agent, cfg.n_steps);
      util::ThreadPool pool{threads};
      agent.run_update_epochs(rollout, &pool);
      return agent;
    };
    const rl::PpoAgent reference = updated_on(1);
    for (const std::size_t threads : {2, 3}) {
      expect_identical_agents(updated_on(threads), reference, threads);
    }
  }
}

std::vector<rl::PpoAgent> train_adversary_pair_at(util::ThreadPool* pool) {
  util::set_log_level(util::LogLevel::kWarn);
  abr::VideoManifest::Params mp;
  mp.size_variation = 0.0;
  const abr::VideoManifest m{mp};
  abr::BufferBased bb0;
  abr::BufferBased bb1;
  core::AbrAdversaryEnv env0{m, bb0};
  core::AbrAdversaryEnv env1{m, bb1};
  const rl::PpoConfig config = core::abr_adversary_ppo_config();
  // One PPO update each (n_steps = 2048 in the adversary config).
  return core::train_adversaries(
      {{.env = &env0, .config = config, .steps = 1, .seed = 7},
       {.env = &env1, .config = config, .steps = 1, .seed = 13}},
      pool);
}

TEST(ParallelAdversaries, ConcurrentTrainingMatchesSequentialTraining) {
  const std::vector<rl::PpoAgent> reference = train_adversary_pair_at(nullptr);
  ASSERT_EQ(reference.size(), 2u);
  for (std::size_t threads : kThreadCounts) {
    util::ThreadPool pool{threads};
    const std::vector<rl::PpoAgent> agents = train_adversary_pair_at(&pool);
    ASSERT_EQ(agents.size(), 2u);
    for (std::size_t j = 0; j < agents.size(); ++j) {
      expect_identical_agents(agents[j], reference[j], threads);
    }
  }
}

std::vector<trace::Trace> record_abr_batch_at(util::ThreadPool* pool) {
  abr::VideoManifest::Params mp;
  mp.size_variation = 0.0;
  const abr::VideoManifest m{mp};
  abr::BufferBased bb;
  core::AbrAdversaryEnv probe{m, bb};
  rl::PpoConfig cfg;
  cfg.hidden_sizes = {8};
  // Untrained agent: recording only needs a policy, not a good one.
  rl::PpoAgent agent{probe.observation_size(), probe.action_spec(), cfg, 77};
  return core::record_abr_traces(
      agent, m,
      []() -> std::unique_ptr<abr::AbrProtocol> {
        return std::make_unique<abr::BufferBased>();
      },
      core::AbrAdversaryEnv::Params{}, /*count=*/6, /*seed=*/123,
      /*deterministic=*/false, pool);
}

TEST(ParallelRecorders, AbrTraceCorpusIdenticalAcrossThreadCounts) {
  const auto reference = record_abr_batch_at(nullptr);
  ASSERT_EQ(reference.size(), 6u);
  for (std::size_t threads : kThreadCounts) {
    util::ThreadPool pool{threads};
    const auto traces = record_abr_batch_at(&pool);
    ASSERT_EQ(traces.size(), reference.size());
    for (std::size_t i = 0; i < traces.size(); ++i) {
      ASSERT_EQ(traces[i].size(), reference[i].size());
      for (std::size_t s = 0; s < traces[i].size(); ++s) {
        EXPECT_EQ(traces[i].segments()[s].bandwidth_mbps,
                  reference[i].segments()[s].bandwidth_mbps)
            << "trace " << i << " segment " << s << " at " << threads
            << " threads";
      }
    }
  }
}

std::vector<core::CcEpisodeRecord> record_cc_batch_at(util::ThreadPool* pool) {
  core::CcAdversaryEnv::Params params;
  params.episode_duration_s = 0.6;  // 20 epochs keeps the packet sim cheap
  core::CcAdversaryEnv probe{params};
  rl::PpoConfig cfg;
  cfg.hidden_sizes = {4};
  rl::PpoAgent agent{probe.observation_size(), probe.action_spec(), cfg, 55};
  return core::record_cc_episodes(agent, params, /*make_sender=*/nullptr,
                                  /*count=*/4, /*seed=*/321,
                                  /*deterministic=*/false, pool);
}

TEST(ParallelRecorders, CcEpisodeBatchIdenticalAcrossThreadCounts) {
  const auto reference = record_cc_batch_at(nullptr);
  ASSERT_EQ(reference.size(), 4u);
  for (std::size_t threads : kThreadCounts) {
    util::ThreadPool pool{threads};
    const auto records = record_cc_batch_at(&pool);
    ASSERT_EQ(records.size(), reference.size());
    for (std::size_t i = 0; i < records.size(); ++i) {
      EXPECT_EQ(records[i].bandwidth_mbps, reference[i].bandwidth_mbps);
      EXPECT_EQ(records[i].raw_bandwidth, reference[i].raw_bandwidth);
      EXPECT_EQ(records[i].throughput_mbps, reference[i].throughput_mbps);
      EXPECT_EQ(records[i].utilization, reference[i].utilization);
      EXPECT_EQ(records[i].bbr_mode, reference[i].bbr_mode);
      EXPECT_EQ(records[i].mean_utilization, reference[i].mean_utilization)
          << "episode " << i << " at " << threads << " threads";
    }
  }
}

}  // namespace
