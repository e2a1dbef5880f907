// Table 1 — "Range of link parameters produced by adversary":
// bandwidth 6-24 Mbps, latency 15-60 ms, loss 0-10%.
//
// The table itself is a specification; the paper's point is that these
// ranges are "clearly within BBR's expected design range". This bench
// (1) asserts the CcAdversaryEnv action space matches Table 1 exactly, and
// (2) sweeps BBR over a grid of *fixed* conditions spanning the ranges,
// showing BBR performs well on every static setting — so any damage the
// adversary inflicts comes from *patterns* of change, not from hostile
// values (contrast with bench_fig5).
#include <benchmark/benchmark.h>

#include <cstdio>

#include "cc/bbr.hpp"
#include "cc/multiflow.hpp"
#include "common/bench_common.hpp"
#include "core/cc_adversary.hpp"
#include "util/config.hpp"

namespace {

using namespace netadv;
using namespace netadv::bench;

void run_table1() {
  std::printf("=== Table 1: adversary action ranges and BBR's static "
              "envelope ===\n");

  core::CcAdversaryEnv env;
  const rl::ActionSpec spec = env.action_spec();
  const std::vector<int> widths{12, 14, 14};
  print_rule(widths);
  print_row({"parameter", "min", "max"}, widths);
  print_rule(widths);
  print_row({"bandwidth", fmt(spec.low[0], 0) + " Mbps",
             fmt(spec.high[0], 0) + " Mbps"}, widths);
  print_row({"latency", fmt(spec.low[1], 0) + " ms",
             fmt(spec.high[1], 0) + " ms"}, widths);
  print_row({"loss rate", fmt(spec.low[2] * 100, 0) + " %",
             fmt(spec.high[2] * 100, 0) + " %"}, widths);
  print_rule(widths);
  const bool match = spec.low[0] == 6.0 && spec.high[0] == 24.0 &&
                     spec.low[1] == 15.0 && spec.high[1] == 60.0 &&
                     spec.low[2] == 0.0 && spec.high[2] == 0.10;
  std::printf("matches the paper's Table 1: %s\n\n", match ? "YES" : "NO");

  std::printf("BBR utilization on fixed conditions across the ranges "
              "(%.0f s runs, startup discarded):\n",
              10.0 * util::bench_scale() >= 1.0 ? 20.0 : 10.0);
  const double sim_s = util::bench_scale() >= 0.5 ? 20.0 : 10.0;
  const std::vector<int> w2{10, 10, 10, 12};
  print_rule(w2);
  print_row({"bw_mbps", "lat_ms", "loss_%", "utilization"}, w2);
  print_rule(w2);
  std::vector<std::vector<double>> csv_rows;
  double min_util_no_loss = 1.0;
  for (double bw : {6.0, 12.0, 24.0}) {
    for (double lat : {15.0, 37.5, 60.0}) {
      for (double loss : {0.0, 0.05, 0.10}) {
        cc::BbrSender bbr;
        cc::LinkSim::Params link;
        link.initial = {bw, lat, loss};
        cc::MultiFlowRunner runner{{&bbr}, link, 777};
        runner.run_until(5.0);
        runner.collect();  // discard startup
        runner.run_until(5.0 + sim_s);
        const double util = runner.collect().aggregate_utilization();
        if (loss == 0.0) min_util_no_loss = std::min(min_util_no_loss, util);
        print_row({fmt(bw, 0), fmt(lat, 1), fmt(loss * 100, 0), fmt(util)},
                  w2);
        csv_rows.push_back({bw, lat, loss, util});
      }
    }
  }
  print_rule(w2);
  write_csv("table1_bbr_static_envelope.csv",
            {"bandwidth_mbps", "latency_ms", "loss_rate", "utilization"},
            csv_rows);
  std::printf("\nshape check: BBR's worst loss-free static utilization in "
              "range = %.3f (expect high; the ranges are within its design "
              "envelope): %s\n",
              min_util_no_loss, min_util_no_loss > 0.7 ? "YES" : "NO");
}

void BM_Table1(benchmark::State& state) {
  for (auto _ : state) run_table1();
}
BENCHMARK(BM_Table1)->Unit(benchmark::kSecond)->Iterations(1);

}  // namespace

BENCHMARK_MAIN();
