// The Section-4 congestion-control attack as a standalone program: train
// the 4-neuron adversary against BBR inside the packet-level link
// simulator, then show (a) BBR cruising on a benign fixed link, (b) BBR
// under the online adversary, and (c) where the adversary strikes relative
// to BBR's probing schedule.
//
//   $ ./bbr_probing_attack [training_steps]
#include <cstdio>
#include <string>

#include "cc/bbr.hpp"
#include "cc/multiflow.hpp"
#include "core/cc_adversary.hpp"
#include "core/recorder.hpp"
#include "core/trainer.hpp"
#include "util/log.hpp"
#include "util/stats.hpp"

using namespace netadv;

int main(int argc, char** argv) {
  const std::size_t steps = argc > 1 ? std::stoul(argv[1]) : 300000;

  // (a) Baseline: BBR on a fixed mid-range link from Table 1's ranges.
  {
    cc::BbrSender bbr;
    cc::LinkSim::Params link;
    link.initial = {15.0, 37.5, 0.0};
    cc::MultiFlowRunner runner{{&bbr}, link, 1};
    runner.run_until(5.0);
    runner.collect();
    runner.run_until(30.0);
    std::printf("benign fixed link (15 Mbps): BBR utilization %.1f%%\n",
                100.0 * runner.collect().aggregate_utilization());
  }

  // (b) Train the adversary and attack.
  core::CcAdversaryEnv env;
  std::printf("training adversary against BBR (%zu pairs of 30 ms)...\n",
              steps);
  rl::PpoAgent adversary = core::train_adversary(
      env, core::cc_adversary_ppo_config(), steps, 11);

  util::Rng rng{12};
  const core::CcEpisodeRecord record =
      core::record_cc_episode(adversary, env, rng, /*deterministic=*/false);
  std::printf("under the online adversary:   BBR utilization %.1f%% "
              "(conditions stayed within Table 1's ranges)\n",
              100.0 * record.mean_utilization);
  std::printf("mean loss injected: %.2f%%; mean bandwidth offered: %.1f "
              "Mbps\n",
              100.0 * util::mean(record.loss_rate),
              util::mean(record.bandwidth_mbps));

  // (c) Alignment with the probing schedule.
  std::printf("\nBBR state vs utilization, 1-second samples:\n");
  std::printf("%8s %12s %12s %10s\n", "time_s", "bw_mbps", "tput_mbps",
              "bbr_state");
  const char* names[] = {"STARTUP", "DRAIN", "PROBE_BW", "PROBE_RTT"};
  for (std::size_t i = 0; i < record.bandwidth_mbps.size(); i += 33) {
    const int mode = record.bbr_mode[i];
    std::printf("%8.1f %12.1f %12.1f %10s\n",
                static_cast<double>(i + 1) * env.params().epoch_s,
                record.bandwidth_mbps[i], record.throughput_mbps[i],
                mode >= 0 && mode < 4 ? names[mode] : "?");
  }
  return 0;
}
