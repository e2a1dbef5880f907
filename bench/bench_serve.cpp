// bench_serve — the session-serving microbenchmark: one full bb serving run
// through serve::SessionEngine at 16 and 64 concurrent simulated playbacks,
// timed by google-benchmark (items are sessions). It only times. Serving
// throughput end to end is perfbench's `serve` workload; the serving
// determinism contract is asserted by ctest:
// ParallelServe.{Bb,MpcDp}SummariesAreIdenticalAcrossThreadCounts and
// ParallelServe.BatchedPensieveMatchesPerSessionExactly (DESIGN.md §12.3).
#include <benchmark/benchmark.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "abr/bb.hpp"
#include "abr/qoe_model.hpp"
#include "serve/engine.hpp"
#include "trace/generators.hpp"

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

}  // namespace

BENCHMARK_MAIN();
