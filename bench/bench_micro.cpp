// Microbenchmarks of the substrates every experiment stands on: the link
// simulator, the streaming simulator, the ABR controllers, the offline
// optimum, PPO inference/updates, and one adversary-environment step. These
// quantify why paper-scale training budgets (600k steps) run in seconds.
//
// The suites taking a thread-count argument (BM_PpoUpdate, BM_PpoUpdateCc,
// BM_ParallelAbrReplay) run at 1, 2 and the default pool size and report
// wall-clock (UseRealTime: the pool's workers do not show in the calling
// thread's CPU time), so the scaling of the parallel layer reads off one
// table. They time only; the bit-identity of results across thread counts
// is asserted by the Parallel* and BuiltinJobs ctest suites.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "abr/bb.hpp"
#include "abr/mpc.hpp"
#include "abr/mpc_dp.hpp"
#include "abr/optimal.hpp"
#include "abr/runner.hpp"
#include "cc/bbr.hpp"
#include "cc/multiflow.hpp"
#include "core/abr_adversary.hpp"
#include "core/cc_adversary.hpp"
#include "core/trainer.hpp"
#include "rl/distributions.hpp"
#include "rl/kernels.hpp"
#include "rl/ppo.hpp"
#include "rl/rollout.hpp"
#include "rl/toy_envs.hpp"
#include "trace/generators.hpp"
#include "util/log.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace netadv;

void BM_LinkTransmit(benchmark::State& state) {
  cc::LinkSim link;
  util::Rng rng{1};
  double now = 0.0;
  for (auto _ : state) {
    now += 0.001;
    benchmark::DoNotOptimize(link.transmit(now, rng));
  }
}
BENCHMARK(BM_LinkTransmit);

void BM_SingleFlowSimSecond(benchmark::State& state) {
  // One simulated second of a BBR flow on a 12 Mbps link (~1000 packets).
  for (auto _ : state) {
    state.PauseTiming();
    cc::BbrSender bbr;
    cc::MultiFlowRunner runner{{&bbr}, {}, 2};
    state.ResumeTiming();
    runner.run_until(1.0);
    benchmark::DoNotOptimize(runner.total_delivered(0));
  }
}
BENCHMARK(BM_SingleFlowSimSecond)->Unit(benchmark::kMicrosecond);

void BM_StreamingChunk(benchmark::State& state) {
  const abr::VideoManifest m;
  abr::StreamingSession session{m};
  for (auto _ : state) {
    if (session.finished()) session.restart();
    benchmark::DoNotOptimize(session.download_next(3, 2.0));
  }
}
BENCHMARK(BM_StreamingChunk);

void BM_BbDecision(benchmark::State& state) {
  const abr::VideoManifest m;
  abr::BufferBased bb;
  bb.begin_video(m);
  abr::AbrObservation obs;
  obs.buffer_s = 12.0;
  for (auto _ : state) benchmark::DoNotOptimize(bb.choose_quality(obs));
}
BENCHMARK(BM_BbDecision);

void BM_MpcDecision(benchmark::State& state, double throughput_mbps,
                    std::size_t chunk) {
  // One RobustMPC decision: branch and bound over the 6^5 plans. The
  // `pruned` counter is the fraction of the exhaustive tree's nodes the
  // bound skipped. A chunk-0 observation is a cold start: empty buffer, no
  // throughput samples, the lowest rung as the previous bitrate.
  const abr::VideoManifest m;
  abr::RobustMpc mpc;
  mpc.begin_video(m);
  abr::AbrObservation obs;
  obs.chunk_index = chunk;
  obs.last_bitrate_mbps = m.bitrate_mbps(0);
  if (chunk > 0) {
    obs.buffer_s = 12.0;
    obs.last_bitrate_mbps = 1.2;
    obs.throughput_history_mbps.assign(5, throughput_mbps);
    obs.throughput_history_mbps[1] *= 1.1;
    obs.throughput_history_mbps[2] *= 0.95;
  }
  const abr::RobustMpc::SearchStats before = mpc.search_stats();
  for (auto _ : state) benchmark::DoNotOptimize(mpc.choose_quality(obs));
  const abr::RobustMpc::SearchStats& after = mpc.search_stats();
  state.counters["pruned"] =
      static_cast<double>(after.pruned - before.pruned) /
      static_cast<double>(after.nodes - before.nodes);
}
BENCHMARK_CAPTURE(BM_MpcDecision, link_2mbps, 2.0, 10)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_MpcDecision, fast_40mbps, 40.0, 10)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_MpcDecision, slow_0p4mbps, 0.4, 10)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_MpcDecision, cold_start, 0.0, 0)
    ->Unit(benchmark::kMicrosecond);

void BM_MpcDpDecision(benchmark::State& state, double throughput_mbps,
                      double buffer_s, std::size_t chunk) {
  // One mpc-dp decision: value iteration over the (depth, buffer level)
  // rows reachable from the observed buffer, 6^2 quality pairs each. The
  // `skipped` counter is the share of the full 4 x 100 rows left out. The
  // observations match BM_MpcDecision's, but the 40 Mbps buffer sits near
  // the cap and the 0.4 Mbps one is empty.
  const abr::VideoManifest m;
  abr::MpcDp dp;
  dp.begin_video(m);
  abr::AbrObservation obs;
  obs.chunk_index = chunk;
  obs.buffer_s = buffer_s;
  obs.last_bitrate_mbps = m.bitrate_mbps(0);
  if (chunk > 0) {
    obs.last_quality = 2;
    obs.last_bitrate_mbps = 1.2;
    obs.throughput_history_mbps.assign(5, throughput_mbps);
    obs.throughput_history_mbps[1] *= 1.1;
    obs.throughput_history_mbps[2] *= 0.95;
  }
  const abr::MpcDp::SearchStats before = dp.search_stats();
  for (auto _ : state) benchmark::DoNotOptimize(dp.choose_quality(obs));
  const abr::MpcDp::SearchStats& after = dp.search_stats();
  state.counters["skipped"] =
      1.0 - static_cast<double>(after.evaluated - before.evaluated) /
                static_cast<double>(after.rows - before.rows);
}
BENCHMARK_CAPTURE(BM_MpcDpDecision, link_2mbps, 2.0, 12.0, 10)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_MpcDpDecision, fast_40mbps, 40.0, 58.0, 10)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_MpcDpDecision, slow_0p4mbps, 0.4, 0.0, 10)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_MpcDpDecision, cold_start, 0.0, 0.0, 0)
    ->Unit(benchmark::kMicrosecond);

void BM_OfflineOptimalDp(benchmark::State& state) {
  const abr::VideoManifest m;
  trace::UniformRandomGenerator gen{{}};
  util::Rng rng{3};
  const trace::Trace t = gen.generate(rng);
  for (auto _ : state) benchmark::DoNotOptimize(abr::optimal_playback(m, t));
}
BENCHMARK(BM_OfflineOptimalDp)->Unit(benchmark::kMillisecond);

void BM_OptimalWindow4(benchmark::State& state) {
  // The r_opt term computed every adversary step (6^4 plans).
  const abr::VideoManifest m;
  const std::vector<double> bw{1.0, 3.0, 2.0, 4.0};
  for (auto _ : state) {
    benchmark::DoNotOptimize(abr::optimal_window_qoe(m, 10, 8.0, 1.2, bw));
  }
}
BENCHMARK(BM_OptimalWindow4)->Unit(benchmark::kMicrosecond);

void BM_PolicyInference(benchmark::State& state) {
  // Deterministic action of the ABR adversary's 32x16 policy on the
  // 110-dimensional observation.
  abr::VideoManifest m;
  abr::BufferBased bb;
  core::AbrAdversaryEnv env{m, bb};
  rl::PpoAgent agent{env.observation_size(), env.action_spec(),
                     core::abr_adversary_ppo_config(), 4};
  const rl::Vec obs(env.observation_size(), 0.5);
  for (auto _ : state) benchmark::DoNotOptimize(agent.act_deterministic(obs));
}
BENCHMARK(BM_PolicyInference);

void BM_PpoUpdate(benchmark::State& state) {
  // One full PPO iteration (rollout of 256 + minibatch epochs) on a toy env,
  // with the minibatch gradient step (per-sample deltas, then row-block
  // weight gradients) spread over state.range(0) threads.
  util::set_log_level(util::LogLevel::kWarn);
  rl::ContextualBanditEnv env{2, 2, 32};
  rl::PpoConfig cfg;
  cfg.hidden_sizes = {32, 16};
  cfg.n_steps = 256;
  cfg.minibatch_size = 64;
  cfg.epochs = 4;
  rl::PpoAgent agent{env.observation_size(), env.action_spec(), cfg, 5};
  util::ThreadPool pool{static_cast<std::size_t>(state.range(0))};
  agent.set_thread_pool(&pool);
  for (auto _ : state) {
    agent.train(env, cfg.n_steps);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(cfg.n_steps));
}
BENCHMARK(BM_PpoUpdate)
    ->Arg(1)
    ->Arg(2)
    ->Arg(static_cast<int>(util::ThreadPool::default_thread_count()))
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_PpoUpdateCc(benchmark::State& state) {
  // The update epochs alone of the Section-4 CC adversary (a 2->4->3
  // continuous actor, 10 epochs of 128-sample minibatches over a 2048-step
  // rollout scored once on random observations), spread over state.range(0)
  // threads. Items are per-sample gradient evaluations.
  util::set_log_level(util::LogLevel::kWarn);
  const core::CcAdversaryEnv env;
  const rl::PpoConfig cfg = core::cc_adversary_ppo_config();
  rl::PpoAgent agent{env.observation_size(), env.action_spec(), cfg, 5};
  util::Rng rng{9};
  rl::RolloutBuffer rollout{cfg.n_steps};
  rl::Mlp::Arena actor_row, critic_row;
  actor_row.reset(agent.actor(), 1);
  critic_row.reset(agent.critic(), 1);
  while (!rollout.full()) {
    rl::Transition t;
    t.observation = {rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0)};
    actor_row.set_input(0, t.observation);
    agent.actor().forward_rows(actor_row, 0, 1);
    const auto head = actor_row.output(0);
    t.action = rl::DiagGaussian::sample(head, agent.log_std(), rng);
    t.log_prob = rl::DiagGaussian::log_prob(head, agent.log_std(), t.action);
    critic_row.set_input(0, t.observation);
    agent.critic().forward_rows(critic_row, 0, 1);
    t.value = critic_row.output(0)[0];
    t.advantage = rng.uniform(-1.0, 1.0);
    t.return_ = t.value + t.advantage;
    rollout.add(std::move(t));
  }
  util::ThreadPool pool{static_cast<std::size_t>(state.range(0))};
  for (auto _ : state) {
    benchmark::DoNotOptimize(agent.run_update_epochs(rollout, &pool));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(cfg.n_steps * cfg.epochs));
}
BENCHMARK(BM_PpoUpdateCc)
    ->Arg(1)
    ->Arg(2)
    ->Arg(static_cast<int>(util::ThreadPool::default_thread_count()))
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_AbrAdversaryEnvStep(benchmark::State& state) {
  abr::VideoManifest m;
  abr::BufferBased bb;
  core::AbrAdversaryEnv env{m, bb};
  util::Rng rng{6};
  env.reset(rng);
  for (auto _ : state) {
    const rl::StepResult r = env.step({0.1}, rng);
    if (r.done) {
      state.PauseTiming();
      env.reset(rng);
      state.ResumeTiming();
    }
  }
}
BENCHMARK(BM_AbrAdversaryEnvStep)->Unit(benchmark::kMicrosecond);

void BM_CcAdversaryEnvStep(benchmark::State& state) {
  core::CcAdversaryEnv env;
  util::Rng rng{7};
  env.reset(rng);
  for (auto _ : state) {
    const rl::StepResult r = env.step({0.0, 0.0, -1.0}, rng);
    if (r.done) {
      state.PauseTiming();
      env.reset(rng);
      state.ResumeTiming();
    }
  }
}
BENCHMARK(BM_CcAdversaryEnvStep)->Unit(benchmark::kMicrosecond);

void BM_PolicyInferenceBatch(benchmark::State& state) {
  // Batched deterministic inference over N observations through the gemm
  // path; compare against N x BM_PolicyInference for the amortization win.
  abr::VideoManifest m;
  abr::BufferBased bb;
  core::AbrAdversaryEnv env{m, bb};
  rl::PpoAgent agent{env.observation_size(), env.action_spec(),
                     core::abr_adversary_ppo_config(), 4};
  const auto batch = static_cast<std::size_t>(state.range(0));
  const std::vector<rl::Vec> obs(batch, rl::Vec(env.observation_size(), 0.5));
  for (auto _ : state) {
    benchmark::DoNotOptimize(agent.act_deterministic_batch(obs));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(batch));
}
BENCHMARK(BM_PolicyInferenceBatch)->Arg(1)->Arg(8)->Arg(32);

// The minibatch kernels at the layer shapes the paper's agents train, one
// layer per registration (rows = outputs, cols = inputs): Pensieve
// 25->64->32->6, the ABR adversary 110->32->16->1 and the CC adversary
// 2->4->3. gemm and gemm_transposed run on a block of 8 samples, the PPO
// update's forward/backward block; rank_k_update runs over a minibatch of
// 128, the weight-gradient sum. gemm_transposed skips each network's first
// layer, whose input gradient the update never needs. Items are samples.
std::vector<double> kernel_operand(std::size_t n, std::uint64_t seed) {
  util::Rng rng{seed};
  std::vector<double> v(n);
  for (double& x : v) x = rng.uniform(-1.0, 1.0);
  return v;
}

void BM_KernelGemm(benchmark::State& state, std::size_t rows,
                   std::size_t cols) {
  const auto batch = static_cast<std::size_t>(state.range(0));
  const auto w = kernel_operand(rows * cols, 1);
  const auto b = kernel_operand(rows, 2);
  const auto x = kernel_operand(batch * cols, 3);
  std::vector<double> y(batch * rows);
  for (auto _ : state) {
    rl::kernels::gemm(w, rows, cols, x, batch, b, y);
    benchmark::DoNotOptimize(y.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(batch));
}

void BM_KernelGemmTransposed(benchmark::State& state, std::size_t rows,
                             std::size_t cols) {
  const auto batch = static_cast<std::size_t>(state.range(0));
  const auto w = kernel_operand(rows * cols, 1);
  const auto g = kernel_operand(batch * rows, 2);
  std::vector<double> y(batch * cols);
  for (auto _ : state) {
    rl::kernels::gemm_transposed(w, rows, cols, g, rows, batch, y, cols);
    benchmark::DoNotOptimize(y.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(batch));
}

void BM_KernelRankK(benchmark::State& state, std::size_t rows,
                    std::size_t cols) {
  const auto m = static_cast<std::size_t>(state.range(0));
  const auto g = kernel_operand(m * rows, 2);
  const auto x = kernel_operand(m * cols, 3);
  std::vector<double> w(rows * cols, 0.0);
  for (auto _ : state) {
    rl::kernels::rank_k_update(w, rows, cols, g, rows, x, cols, m);
    benchmark::DoNotOptimize(w.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(m));
}

#define NETADV_KERNEL_LAYER(name, rows, cols)                      \
  BENCHMARK_CAPTURE(BM_KernelGemm, name, rows, cols)->Arg(8);      \
  BENCHMARK_CAPTURE(BM_KernelRankK, name, rows, cols)->Arg(128)
NETADV_KERNEL_LAYER(pensieve_25to64, 64, 25);
NETADV_KERNEL_LAYER(pensieve_64to32, 32, 64);
NETADV_KERNEL_LAYER(pensieve_32to6, 6, 32);
NETADV_KERNEL_LAYER(abr_adversary_110to32, 32, 110);
NETADV_KERNEL_LAYER(abr_adversary_32to16, 16, 32);
NETADV_KERNEL_LAYER(abr_adversary_16to1, 1, 16);
NETADV_KERNEL_LAYER(cc_adversary_2to4, 4, 2);
NETADV_KERNEL_LAYER(cc_adversary_4to3, 3, 4);
#undef NETADV_KERNEL_LAYER
BENCHMARK_CAPTURE(BM_KernelGemmTransposed, pensieve_64to32, 32, 64)->Arg(8);
BENCHMARK_CAPTURE(BM_KernelGemmTransposed, pensieve_32to6, 6, 32)->Arg(8);
BENCHMARK_CAPTURE(BM_KernelGemmTransposed, abr_adversary_32to16, 16, 32)
    ->Arg(8);
BENCHMARK_CAPTURE(BM_KernelGemmTransposed, abr_adversary_16to1, 1, 16)
    ->Arg(8);
BENCHMARK_CAPTURE(BM_KernelGemmTransposed, cc_adversary_4to3, 3, 4)->Arg(8);

void BM_ParallelAbrReplay(benchmark::State& state) {
  // Figure-1 style corpus replay (MPC over 32 traces) across a pool of
  // state.range(0) threads.
  const abr::VideoManifest m;
  trace::UniformRandomGenerator gen{{}};
  util::Rng rng{11};
  const auto traces = gen.generate_many(32, rng);
  util::ThreadPool pool{static_cast<std::size_t>(state.range(0))};
  for (auto _ : state) {
    benchmark::DoNotOptimize(abr::qoe_per_trace(
        []() -> std::unique_ptr<abr::AbrProtocol> {
          return std::make_unique<abr::RobustMpc>();
        },
        m, traces, {}, &pool));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(traces.size()));
}
BENCHMARK(BM_ParallelAbrReplay)
    ->Arg(1)
    ->Arg(2)
    ->Arg(static_cast<int>(util::ThreadPool::default_thread_count()))
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
