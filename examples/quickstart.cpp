// Quickstart: train an adversary against Buffer-Based ABR and show the
// optimality gap it opens.
//
//   $ ./quickstart [training_steps]
//
// Walks the whole public API in ~40 lines of logic: build a video, pick a
// target protocol, wrap it in an AbrAdversaryEnv, train a PPO adversary,
// record adversarial traces, and compare the target's QoE against the
// offline optimum on those traces.
#include <cstdio>
#include <string>

#include "abr/bb.hpp"
#include "abr/optimal.hpp"
#include "abr/runner.hpp"
#include "core/abr_adversary.hpp"
#include "core/recorder.hpp"
#include "core/trainer.hpp"
#include "util/log.hpp"

using namespace netadv;

int main(int argc, char** argv) {
  const std::size_t steps = argc > 1 ? std::stoul(argv[1]) : 40000;

  // 1. The video under test: Pensieve's 48-chunk, 6-rate ladder.
  const abr::VideoManifest manifest;

  // 2. The protocol under attack.
  abr::BufferBased bb;

  // 3. The paper's online adversary environment (Equation 1 reward,
  //    bandwidth actions in 0.8-4.8 Mbps, 10-observation history).
  core::AbrAdversaryEnv env{manifest, bb};

  // 4. Train the adversary (PPO, two hidden layers of 32/16 — Section 3).
  std::printf("training adversary against %s for %zu steps...\n",
              bb.name().c_str(), steps);
  rl::PpoAgent adversary = core::train_adversary(
      env, core::abr_adversary_ppo_config(), steps, /*seed=*/42);

  // 5. Record adversarial traces and measure the damage.
  util::Rng rng{43};
  const auto traces = core::record_abr_traces(adversary, env, 10, rng);
  double protocol_total = 0.0;
  double optimal_total = 0.0;
  for (const auto& trace : traces) {
    abr::BufferBased target;  // fresh instance per playback
    protocol_total += abr::run_playback(target, manifest, trace).total_qoe;
    optimal_total += abr::optimal_playback(manifest, trace).total_qoe;
  }
  const double n = static_cast<double>(traces.size());
  std::printf("\nover %zu adversarial traces:\n", traces.size());
  std::printf("  BB's QoE (mean per video):      %8.2f\n", protocol_total / n);
  std::printf("  offline-optimal QoE:            %8.2f\n", optimal_total / n);
  std::printf("  regret the adversary opened:    %8.2f\n",
              (optimal_total - protocol_total) / n);
  std::printf("\nan example adversarial bandwidth sequence (Mbps):\n  ");
  for (std::size_t i = 0; i < traces[0].size(); i += 4) {
    std::printf("%.1f ", traces[0][i].bandwidth_mbps);
  }
  std::printf("\n");
  return 0;
}
