// Section 5, "Guiding protocol development": use the adversarial framework
// as a continuous-integration gate. Instead of replaying a fixed corpus of
// traces that broke an *earlier* version of the protocol, re-train a fresh
// adversary against the *current* build and fail the gate if it can still
// open more than an allowed optimality gap.
//
//   $ ./regression_gate [max_allowed_regret] [adversary_steps]
//
// Exit code 0 = the protocol passes (no adversary of this budget opens more
// than the allowed regret); 1 = regression found, with the offending traces
// saved for debugging.
#include <cstdio>
#include <string>

#include "abr/bola.hpp"
#include "abr/optimal.hpp"
#include "abr/runner.hpp"
#include "core/abr_adversary.hpp"
#include "core/recorder.hpp"
#include "core/trainer.hpp"
#include "trace/trace.hpp"
#include "util/log.hpp"

using namespace netadv;

int main(int argc, char** argv) {
  const double max_allowed_regret = argc > 1 ? std::stod(argv[1]) : 60.0;
  const std::size_t steps = argc > 2 ? std::stoul(argv[2]) : 40000;

  // The protocol under CI: swap in the build being tested.
  abr::Bola protocol;
  const abr::VideoManifest manifest;

  std::printf("regression gate: training a %zu-step adversary against %s\n",
              steps, protocol.name().c_str());
  core::AbrAdversaryEnv env{manifest, protocol};
  rl::PpoAgent adversary = core::train_adversary(
      env, core::abr_adversary_ppo_config(), steps, /*seed=*/2024);

  util::Rng rng{2025};
  const auto traces = core::record_abr_traces(adversary, env, 20, rng);

  double worst_regret = 0.0;
  trace::Trace worst_trace;
  double total_regret = 0.0;
  for (const auto& t : traces) {
    abr::Bola fresh;
    const double protocol_qoe = abr::run_playback(fresh, manifest, t).total_qoe;
    const double optimal_qoe = abr::optimal_playback(manifest, t).total_qoe;
    const double regret = optimal_qoe - protocol_qoe;
    total_regret += regret;
    if (regret > worst_regret) {
      worst_regret = regret;
      worst_trace = t;
    }
  }
  const double mean_regret = total_regret / static_cast<double>(traces.size());

  std::printf("mean regret: %.1f QoE, worst trace: %.1f QoE "
              "(threshold %.1f)\n",
              mean_regret, worst_regret, max_allowed_regret);
  if (mean_regret <= max_allowed_regret) {
    std::printf("PASS: no adversary of this budget exceeds the allowed "
                "optimality gap\n");
    return 0;
  }
  const std::string path = "regression_worst_trace.csv";
  trace::save_trace(worst_trace, path);
  std::printf("FAIL: regression found; worst adversarial trace saved to %s\n"
              "      (replay it with abr::run_playback to debug)\n",
              path.c_str());
  return 1;
}
