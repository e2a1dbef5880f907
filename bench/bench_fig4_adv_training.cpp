// Figure 4 — "Improvements in QoE with adversarial training in the mean
// (top) and in the 5th percentile (bottom)".
//
// For each training dataset (broadband-like, 3G-like) we train Pensieve
// three ways — without adversarial traces, with adversarial traces injected
// after 90% of training, and after 70% — then test every model on held-out
// traces from both datasets. The paper's shape: adversarial training helps
// across test sets, the biggest gains are in the 5th percentile and in the
// broadband-train/3G-test cell, and the earlier (70%) injection generalizes
// best.
//
// The six (train set x treatment) trainings run as a campaign: the spec
// below declares one fig4-cell job per combination and the scheduler fans
// them out (concurrent where threads allow), writing provenance into the
// campaign manifest. Cells are pure functions of (corpus, seed, treatment),
// so the CSV is byte-identical to the pre-campaign sequential loop.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <stdexcept>
#include <string>

#include "abr/pensieve.hpp"
#include "abr/runner.hpp"
#include "common/bench_common.hpp"
#include "core/trainer.hpp"
#include "exp/campaign.hpp"
#include "exp/scheduler.hpp"
#include "trace/generators.hpp"
#include "util/config.hpp"
#include "util/csv.hpp"
#include "util/log.hpp"
#include "util/stats.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace netadv;
using namespace netadv::bench;

struct Cell {
  double mean_qoe = 0.0;
  double p5_qoe = 0.0;
};

void run_fig4() {
  std::printf("=== Figure 4: adversarial training of Pensieve ===\n");
  abr::VideoManifest::Params mp;
  mp.size_variation = 0.0;
  const abr::VideoManifest m{mp};

  const std::size_t protocol_steps = util::scaled_steps(150000, 8192);
  const std::size_t adversary_steps = util::scaled_steps(80000, 4096);
  const std::size_t corpus_size = 100;
  const std::size_t test_size = 50;

  trace::FccLikeGenerator broadband{{}};
  trace::Hsdpa3gLikeGenerator threeg{{}};
  const std::vector<std::pair<const char*, const trace::TraceGenerator*>>
      datasets{{"broadband", &broadband}, {"3g", &threeg}};

  util::Rng data_rng{404};
  std::vector<std::vector<trace::Trace>> train_corpora;
  std::vector<std::vector<trace::Trace>> test_corpora;
  for (const auto& [name, gen] : datasets) {
    train_corpora.push_back(gen->generate_many(corpus_size, data_rng));
    test_corpora.push_back(gen->generate_many(test_size, data_rng));
  }

  const std::vector<std::pair<const char*, double>> treatments{
      {"without-adv", 1.0}, {"adv-at-90", 0.9}, {"adv-at-70", 0.7}};

  // One fig4-cell job per (train set, treatment); the campaign runs the six
  // cells through the DAG scheduler instead of a hand-rolled double loop.
  std::string spec_text =
      "[campaign]\n"
      "name = fig4\n"
      "seed = 404\n"
      "out_dir = " + util::bench_output_dir() + "/fig4_campaign\n";
  for (std::size_t d = 0; d < datasets.size(); ++d) {
    for (std::size_t t = 0; t < treatments.size(); ++t) {
      spec_text += "\n[job cell-" + std::string(datasets[d].first) + "-" +
                   treatments[t].first + "]\n" +
                   "kind = fig4-cell\n" +
                   "seed = " + std::to_string(404 + 10 * d + t) + "\n" +
                   "train_set = " + std::to_string(d) + "\n" +
                   "treatment = " + std::to_string(t) + "\n";
    }
  }
  const exp::Campaign campaign =
      exp::parse_campaign(util::parse_spec_text(spec_text, "fig4-inline"));

  // results[train_set][treatment][test_set]; each cell job writes only its
  // own [d][t] slots, so the concurrent wave stays race-free.
  Cell results[2][3][2];
  exp::JobRegistry registry;
  registry.add("fig4-cell", [&](const exp::JobContext& ctx) {
    const auto d = static_cast<std::size_t>(
        std::stoul(ctx.job->value_or("train_set", "")));
    const auto t = static_cast<std::size_t>(
        std::stoul(ctx.job->value_or("treatment", "")));
    if (d >= datasets.size() || t >= treatments.size()) {
      throw std::runtime_error{"fig4-cell: bad train_set/treatment"};
    }
    util::log_info("fig4: training pensieve on %s, treatment %s",
                   datasets[d].first, treatments[t].first);
    abr::PensieveEnv env{m, train_corpora[d]};
    rl::PpoAgent pensieve = abr::make_pensieve_agent(m, ctx.seed);
    core::RobustifyConfig cfg;
    cfg.protocol_steps = protocol_steps;
    cfg.inject_fraction = treatments[t].second;
    cfg.adversary_steps = adversary_steps;
    cfg.adversarial_traces = 100;
    cfg.seed = ctx.seed;
    cfg.pool = ctx.pool;
    core::robustify_pensieve(pensieve, env, cfg);

    abr::PensievePolicy policy{pensieve};
    exp::JobResult out;
    out.artifacts.push_back(ctx.artifact("_cell.csv"));
    util::CsvWriter cell_csv{out.artifacts.back()};
    cell_csv.write_row(
        std::vector<std::string>{"test_set", "mean_qoe", "p5_qoe"});
    for (std::size_t e = 0; e < datasets.size(); ++e) {
      const auto qoe = abr::qoe_per_trace(policy, m, test_corpora[e]);
      results[d][t][e] = {util::mean(qoe), util::percentile(qoe, 5)};
      cell_csv.write_row(std::vector<double>{static_cast<double>(e),
                                             results[d][t][e].mean_qoe,
                                             results[d][t][e].p5_qoe});
    }
    cell_csv.close();
    return out;
  });
  exp::SchedulerOptions options;
  options.pool = &util::ThreadPool::global();
  const exp::CampaignReport report =
      exp::run_campaign(campaign, registry, options);
  if (!report.ok()) {
    util::log_error("fig4: campaign failed (see %s)",
                    report.manifest.c_str());
    return;
  }

  for (const char* panel : {"mean", "p5"}) {
    std::printf("\n%s\n", panel == std::string("mean")
                                ? "Mean QoE (top panel)"
                                : "5th-percentile QoE (bottom panel)");
    const std::vector<int> widths{26, 13, 13, 13};
    print_rule(widths);
    print_row({"train/test", "without-adv", "adv-at-90", "adv-at-70"}, widths);
    print_rule(widths);
    for (std::size_t d = 0; d < 2; ++d) {
      for (std::size_t e = 0; e < 2; ++e) {
        std::vector<std::string> cells{std::string(datasets[d].first) +
                                       " train / " + datasets[e].first +
                                       " test"};
        for (std::size_t t = 0; t < 3; ++t) {
          const Cell& c = results[d][t][e];
          cells.push_back(fmt(panel == std::string("mean") ? c.mean_qoe
                                                           : c.p5_qoe));
        }
        print_row(cells, widths);
      }
    }
    print_rule(widths);
  }

  std::vector<std::vector<double>> csv_rows;
  for (std::size_t d = 0; d < 2; ++d) {
    for (std::size_t t = 0; t < 3; ++t) {
      for (std::size_t e = 0; e < 2; ++e) {
        csv_rows.push_back({static_cast<double>(d), static_cast<double>(t),
                            static_cast<double>(e), results[d][t][e].mean_qoe,
                            results[d][t][e].p5_qoe});
      }
    }
  }
  write_csv("fig4_adv_training.csv",
            {"train_set", "treatment", "test_set", "mean_qoe", "p5_qoe"},
            csv_rows);

  // Shape checks: count cells where adversarial training helped.
  int mean_wins = 0;
  int p5_wins = 0;
  for (std::size_t d = 0; d < 2; ++d) {
    for (std::size_t e = 0; e < 2; ++e) {
      const Cell& base = results[d][0][e];
      const Cell best_adv{
          std::max(results[d][1][e].mean_qoe, results[d][2][e].mean_qoe),
          std::max(results[d][1][e].p5_qoe, results[d][2][e].p5_qoe)};
      if (best_adv.mean_qoe > base.mean_qoe) ++mean_wins;
      if (best_adv.p5_qoe > base.p5_qoe) ++p5_wins;
    }
  }
  std::printf("\nshape checks: adversarial training improved mean QoE in "
              "%d/4 cells, 5th-percentile QoE in %d/4 cells\n",
              mean_wins, p5_wins);
}

void BM_Fig4(benchmark::State& state) {
  for (auto _ : state) run_fig4();
}
BENCHMARK(BM_Fig4)->Unit(benchmark::kSecond)->Iterations(1);

}  // namespace

BENCHMARK_MAIN();
