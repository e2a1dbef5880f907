// bench_serve — the session-serving harness: how many concurrent simulated
// ABR playbacks one process sustains through serve::SessionEngine, and what
// cross-session batched policy inference buys for neural protocols.
//
// Three sections, dropped as bench_out/BENCH_serve.json:
//   * sessions — a bb serving run at full session count across 1/2/N
//     threads: sessions/s, decisions/s, p50/p99 per-decision latency, and
//     the determinism contract (session summaries bit-identical at every
//     thread count).
//   * mpc_dp — the same engine serving the DP planner under the ssim QoE
//     model (the all-new decision path of this PR).
//   * pensieve_batched — per-session gemv forwards (OwnedPensievePolicy)
//     vs one act_deterministic_batch per tick (PensieveBatchPolicy):
//     decisions/s both ways, the speedup, and the bit-identity of the two
//     paths' session summaries.
//
// Session counts honor NETADV_SCALE (full scale serves >= 1000 concurrent
// sessions); CI runs this binary with --benchmark_filter=NoSuchBenchmark so
// only the artifact writer executes.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "abr/bb.hpp"
#include "abr/mpc_dp.hpp"
#include "abr/pensieve.hpp"
#include "abr/qoe_model.hpp"
#include "serve/engine.hpp"
#include "trace/generators.hpp"
#include "util/config.hpp"
#include "util/log.hpp"
#include "util/stats.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace netadv;

abr::VideoManifest bench_manifest() {
  abr::VideoManifest::Params mp;
  mp.size_variation = 0.0;
  return abr::VideoManifest{mp};
}

std::vector<trace::Trace> bench_traces(std::size_t count) {
  trace::FccLikeGenerator gen{{}};
  util::Rng rng{2019};
  return gen.generate_many(count, rng);
}

void BM_ServeTickBb(benchmark::State& state) {
  // One full bb serving run of state.range(0) sessions, sequential engine.
  serve::SessionEngine engine{bench_manifest(), bench_traces(8)};
  const auto sessions = static_cast<std::size_t>(state.range(0));
  abr::LinQoe qoe;
  const auto factory = []() -> std::unique_ptr<abr::AbrProtocol> {
    return std::make_unique<abr::BufferBased>();
  };
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.run(factory, qoe, sessions));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(sessions));
}
BENCHMARK(BM_ServeTickBb)->Arg(16)->Arg(64)->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// BENCH_serve.json

struct ServeSample {
  std::size_t threads = 0;
  serve::ServeStats stats;
  double p50_us = 0.0;
  double p99_us = 0.0;
};

ServeSample sampled(std::size_t threads, const serve::ServeStats& stats) {
  ServeSample s;
  s.threads = threads;
  s.stats = stats;
  s.p50_us = 1e6 * util::percentile(stats.decision_latency_s, 50);
  s.p99_us = 1e6 * util::percentile(stats.decision_latency_s, 99);
  return s;
}

void write_serve_artifact() {
  const std::size_t hw = util::ThreadPool::default_thread_count();
  std::vector<std::size_t> thread_counts{1, 2};
  if (hw > 2) thread_counts.push_back(hw);

  // >= 1000 concurrent sessions at full scale; floor of 64 keeps the smoke
  // run meaningful.
  const double scale = std::min(1.0, util::bench_scale() * 2.0);
  const std::size_t sessions = std::max<std::size_t>(
      static_cast<std::size_t>(2000.0 * scale), 64);
  const abr::VideoManifest manifest = bench_manifest();
  const std::vector<trace::Trace> traces = bench_traces(64);

  // --- sessions: bb at full session count, 1/2/N threads. ---
  const auto bb_factory = []() -> std::unique_ptr<abr::AbrProtocol> {
    return std::make_unique<abr::BufferBased>();
  };
  std::vector<ServeSample> bb_samples;
  std::vector<serve::SessionSummary> bb_reference;
  bool threads_identical = true;
  for (std::size_t threads : thread_counts) {
    util::ThreadPool pool{threads};
    serve::SessionEngine engine{manifest, traces};
    abr::LinQoe qoe;
    serve::ServeStats stats;
    // Warm once at a fraction of the load (page in code/data), then measure.
    engine.run(bb_factory, qoe, std::max<std::size_t>(sessions / 8, 2), &pool);
    const std::vector<serve::SessionSummary> summaries =
        engine.run(bb_factory, qoe, sessions, &pool, &stats);
    bb_samples.push_back(sampled(threads, stats));
    if (bb_reference.empty()) {
      bb_reference = summaries;
    } else if (summaries != bb_reference) {
      threads_identical = false;
    }
  }

  // --- mpc_dp: the DP planner under the ssim QoE model. A decision costs
  // ~H*L*(Q+Q^2) ops, so serve fewer sessions than the bb sweep. ---
  const std::size_t dp_sessions = std::max<std::size_t>(sessions / 8, 2);
  ServeSample dp_sample;
  double dp_mean_qoe = 0.0;
  {
    util::ThreadPool pool{hw};
    serve::SessionEngine engine{manifest, traces};
    abr::SsimTableQoe qoe;
    const auto dp_factory = []() -> std::unique_ptr<abr::AbrProtocol> {
      return std::make_unique<abr::MpcDp>(
          abr::MpcDp::Params{}, std::make_unique<abr::SsimTableQoe>());
    };
    serve::ServeStats stats;
    const std::vector<serve::SessionSummary> summaries =
        engine.run(dp_factory, qoe, dp_sessions, &pool, &stats);
    dp_sample = sampled(hw, stats);
    for (const serve::SessionSummary& s : summaries) dp_mean_qoe += s.qoe;
    dp_mean_qoe /= static_cast<double>(summaries.size());
  }

  // --- pensieve_batched: per-session forwards vs one batch per tick. An
  // untrained seeded agent serves: the net shape (and thus the arithmetic)
  // matches a trained Pensieve exactly, and both paths share it. ---
  const std::size_t pensieve_sessions = std::max<std::size_t>(sessions / 4, 2);
  const rl::PpoAgent agent = abr::make_pensieve_agent(manifest, /*seed=*/7);
  ServeSample per_session_sample;
  ServeSample batched_sample;
  bool batched_identical = true;
  {
    util::ThreadPool pool{hw};
    serve::SessionEngine engine{manifest, traces};
    abr::LinQoe qoe;
    const auto pensieve_factory =
        [&agent]() -> std::unique_ptr<abr::AbrProtocol> {
      return std::make_unique<abr::OwnedPensievePolicy>(agent);
    };
    serve::ServeStats per_stats;
    const std::vector<serve::SessionSummary> per_summaries = engine.run(
        pensieve_factory, qoe, pensieve_sessions, &pool, &per_stats);
    per_session_sample = sampled(hw, per_stats);

    serve::PensieveBatchPolicy policy{agent};
    serve::ServeStats batch_stats;
    const std::vector<serve::SessionSummary> batch_summaries =
        engine.run(policy, qoe, pensieve_sessions, &pool, &batch_stats);
    batched_sample = sampled(hw, batch_stats);
    batched_identical = batch_summaries == per_summaries;
  }
  const double batched_speedup =
      per_session_sample.stats.decisions_per_s() > 0.0
          ? batched_sample.stats.decisions_per_s() /
                per_session_sample.stats.decisions_per_s()
          : 0.0;

  const std::string path = util::bench_output_dir() + "/BENCH_serve.json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    util::log_error("BENCH_serve: cannot open %s", path.c_str());
    return;
  }
  const auto write_sample = [&](const ServeSample& s, const char* indent,
                                const char* tail) {
    std::fprintf(f,
                 "%s{\"threads\": %zu, \"seconds\": %.6f, "
                 "\"sessions_per_s\": %.2f, \"decisions_per_s\": %.2f, "
                 "\"decision_p50_us\": %.2f, \"decision_p99_us\": %.2f}%s\n",
                 indent, s.threads, s.stats.elapsed_s, s.stats.sessions_per_s(),
                 s.stats.decisions_per_s(), s.p50_us, s.p99_us, tail);
  };
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"generated_by\": \"bench_serve\",\n");
  std::fprintf(f, "  \"hardware_threads\": %zu,\n", hw);
  std::fprintf(f, "  \"concurrent_sessions\": %zu,\n", sessions);
  std::fprintf(f, "  \"traces\": %zu,\n", traces.size());
  std::fprintf(f, "  \"summaries_identical_across_threads\": %s,\n",
               threads_identical ? "true" : "false");
  std::fprintf(f, "  \"sessions\": [\n");
  for (std::size_t i = 0; i < bb_samples.size(); ++i) {
    write_sample(bb_samples[i], "    ",
                 i + 1 < bb_samples.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"mpc_dp\": {\n");
  std::fprintf(f, "    \"sessions\": %zu,\n", dp_sessions);
  std::fprintf(f, "    \"qoe_model\": \"ssim\",\n");
  std::fprintf(f, "    \"mean_qoe\": %.3f,\n", dp_mean_qoe);
  std::fprintf(f, "    \"sample\":\n");
  write_sample(dp_sample, "      ", "");
  std::fprintf(f, "  },\n");
  std::fprintf(f, "  \"pensieve_batched\": {\n");
  std::fprintf(f, "    \"sessions\": %zu,\n", pensieve_sessions);
  std::fprintf(f, "    \"per_session\":\n");
  write_sample(per_session_sample, "      ", ",");
  std::fprintf(f, "    \"batched\":\n");
  write_sample(batched_sample, "      ", ",");
  std::fprintf(f, "    \"batched_speedup_decisions_per_s\": %.3f,\n",
               batched_speedup);
  std::fprintf(f, "    \"pensieve_batched_identical\": %s\n",
               batched_identical ? "true" : "false");
  std::fprintf(f, "  }\n");
  std::fprintf(f, "}\n");
  std::fclose(f);
  util::log_info(
      "BENCH_serve: wrote %s (%zu sessions, bb %.0f sessions/s "
      "p99 %.1f us at %zu threads; mpc-dp/ssim %.0f decisions/s; pensieve "
      "batched %.2fx; identical across threads: %s, batched identical: %s)",
      path.c_str(), sessions, bb_samples.back().stats.sessions_per_s(),
      bb_samples.back().p99_us, hw, dp_sample.stats.decisions_per_s(),
      batched_speedup, threads_identical ? "yes" : "NO",
      batched_identical ? "yes" : "NO");
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  write_serve_artifact();
  return 0;
}
