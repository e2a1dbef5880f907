// Ablation of the smoothing penalty in Equation 1 (Section 2.1, "Seeking
// explainable examples"): train the ABR adversary against BB with and
// without the p_smoothing term and compare (a) how much damage (regret =
// optimal QoE - protocol QoE) each inflicts and (b) how noisy the resulting
// traces are (bandwidth total variation). The design claim: the penalty
// removes gratuitous fluctuation at little cost in damage, making traces
// explainable.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "abr/bb.hpp"
#include "abr/optimal.hpp"
#include "abr/runner.hpp"
#include "common/bench_common.hpp"
#include "core/abr_adversary.hpp"
#include "core/recorder.hpp"
#include "core/trainer.hpp"
#include "util/log.hpp"
#include "util/stats.hpp"

namespace {

using namespace netadv;
using namespace netadv::bench;

struct AblationResult {
  double mean_regret = 0.0;
  double mean_total_variation = 0.0;
};

AblationResult evaluate(double smoothing_weight, std::uint64_t seed,
                        std::size_t steps) {
  abr::VideoManifest::Params mp;
  mp.size_variation = 0.0;
  const abr::VideoManifest m{mp};
  abr::BufferBased bb;
  core::AbrAdversaryEnv::Params params;
  params.smoothing_weight = smoothing_weight;
  core::AbrAdversaryEnv env{m, bb, params};
  rl::PpoAgent adversary = core::train_adversary(
      env, core::abr_adversary_ppo_config(), steps, seed);

  util::Rng rng{seed + 1};
  const auto traces = core::record_abr_traces(adversary, env, 20, rng);
  AblationResult result;
  for (const auto& t : traces) {
    abr::BufferBased target;
    const double protocol = abr::run_playback(target, m, t).total_qoe;
    const double optimal = abr::optimal_playback(m, t).total_qoe;
    result.mean_regret += optimal - protocol;
    result.mean_total_variation += t.bandwidth_total_variation();
  }
  result.mean_regret /= static_cast<double>(traces.size());
  result.mean_total_variation /= static_cast<double>(traces.size());
  return result;
}

void run_ablation() {
  std::printf("=== Ablation: Equation 1's smoothing penalty ===\n");
  const std::size_t steps = util::scaled_steps(80000, 4096);
  util::log_info("ablation: 2 adversary trainings of %zu steps each", steps);

  const AblationResult with_smoothing = evaluate(1.0, 909, steps);
  const AblationResult without = evaluate(0.0, 909, steps);

  const std::vector<int> widths{22, 14, 22};
  print_rule(widths);
  print_row({"configuration", "mean regret", "trace variation (Mbps)"},
            widths);
  print_rule(widths);
  print_row({"with p_smoothing", fmt(with_smoothing.mean_regret, 2),
             fmt(with_smoothing.mean_total_variation, 2)}, widths);
  print_row({"without p_smoothing", fmt(without.mean_regret, 2),
             fmt(without.mean_total_variation, 2)}, widths);
  print_rule(widths);
  write_csv("ablation_smoothing.csv",
            {"smoothing_weight", "mean_regret", "mean_total_variation"},
            {{1.0, with_smoothing.mean_regret,
              with_smoothing.mean_total_variation},
             {0.0, without.mean_regret, without.mean_total_variation}});

  std::printf("\nshape check: smoothing penalty yields smoother traces: %s "
              "(%.2f vs %.2f Mbps total variation)\n",
              with_smoothing.mean_total_variation <
                      without.mean_total_variation
                  ? "YES"
                  : "NO",
              with_smoothing.mean_total_variation,
              without.mean_total_variation);
  std::printf("damage retained with smoothing: %.0f%% of the unsmoothed "
              "adversary's regret\n",
              100.0 * with_smoothing.mean_regret /
                  std::max(without.mean_regret, 1e-9));
}

void BM_AblationSmoothing(benchmark::State& state) {
  for (auto _ : state) run_ablation();
}
BENCHMARK(BM_AblationSmoothing)->Unit(benchmark::kSecond)->Iterations(1);

}  // namespace

BENCHMARK_MAIN();
