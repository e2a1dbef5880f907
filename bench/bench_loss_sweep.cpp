// Supporting experiment for Section 4's framing claim: "TCP congestion
// control variants like Cubic, Reno and HTCP all share a trivial weakness
// to packet loss even as low as 1%. However, recently proposed protocols
// such as BBR ... do not have as clear weaknesses."
//
// Sweep random loss from 0 to 10% on a fixed 12 Mbps / 30 ms link and
// report each protocol's utilization. Expected shape: Cubic and Reno
// collapse by 1% loss; BBR (and the delay-based Copa, also named in
// Section 4) stay near capacity across the sweep — which is why the paper
// needs an RL adversary to hurt them at all.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <memory>

#include "cc/bbr.hpp"
#include "cc/copa.hpp"
#include "cc/cubic.hpp"
#include "cc/multiflow.hpp"
#include "cc/vivace.hpp"
#include "common/bench_common.hpp"
#include "util/config.hpp"

namespace {

using namespace netadv;
using namespace netadv::bench;

double measure_utilization(cc::CcSender& sender, double loss, double sim_s) {
  cc::LinkSim::Params link;
  link.initial = {12.0, 30.0, loss};
  cc::MultiFlowRunner runner{{&sender}, link, 808};
  runner.run_until(5.0);
  runner.collect();  // discard startup
  runner.run_until(5.0 + sim_s);
  return runner.collect().aggregate_utilization();
}

void run_loss_sweep() {
  std::printf("=== Loss sweep: utilization vs random loss (12 Mbps, 30 ms "
              "OWD) ===\n");
  const double sim_s = util::bench_scale() >= 0.5 ? 25.0 : 10.0;
  const std::vector<double> losses{0.0, 0.005, 0.01, 0.02, 0.05, 0.10};

  const std::vector<int> widths{8, 10, 10, 10, 10, 10};
  print_rule(widths);
  print_row({"loss_%", "bbr", "copa", "vivace", "cubic", "reno"}, widths);
  print_rule(widths);
  std::vector<std::vector<double>> csv_rows;
  double bbr_at_1pct = 0.0;
  double cubic_at_1pct = 0.0;
  double reno_at_1pct = 0.0;
  for (double loss : losses) {
    cc::BbrSender bbr;
    cc::CopaSender copa;
    cc::VivaceSender vivace;
    cc::CubicSender cubic;
    cc::RenoSender reno;
    const double u_bbr = measure_utilization(bbr, loss, sim_s);
    const double u_copa = measure_utilization(copa, loss, sim_s);
    const double u_vivace = measure_utilization(vivace, loss, sim_s);
    const double u_cubic = measure_utilization(cubic, loss, sim_s);
    const double u_reno = measure_utilization(reno, loss, sim_s);
    if (loss == 0.01) {
      bbr_at_1pct = u_bbr;
      cubic_at_1pct = u_cubic;
      reno_at_1pct = u_reno;
    }
    print_row({fmt(loss * 100, 1), fmt(u_bbr), fmt(u_copa), fmt(u_vivace),
               fmt(u_cubic), fmt(u_reno)},
              widths);
    csv_rows.push_back({loss, u_bbr, u_copa, u_vivace, u_cubic, u_reno});
  }
  print_rule(widths);
  write_csv("loss_sweep.csv",
            {"loss_rate", "bbr", "copa", "vivace", "cubic", "reno"},
            csv_rows);

  std::printf("\nshape checks at 1%% loss:\n");
  std::printf("  Cubic collapsed (util < 0.6):  %s (%.3f)\n",
              cubic_at_1pct < 0.6 ? "YES" : "NO", cubic_at_1pct);
  std::printf("  Reno collapsed (util < 0.6):   %s (%.3f)\n",
              reno_at_1pct < 0.6 ? "YES" : "NO", reno_at_1pct);
  std::printf("  BBR unaffected (util > 0.7):   %s (%.3f)\n",
              bbr_at_1pct > 0.7 ? "YES" : "NO", bbr_at_1pct);
}

void BM_LossSweep(benchmark::State& state) {
  for (auto _ : state) run_loss_sweep();
}
BENCHMARK(BM_LossSweep)->Unit(benchmark::kSecond)->Iterations(1);

}  // namespace

BENCHMARK_MAIN();
