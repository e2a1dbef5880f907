// serve — serve::SessionEngine over a fixed population of concurrent
// sessions replaying FCC-like traces: mpc, mpc-dp under the ssim QoE model
// loaded from examples/ssim_ladder.csv, and pensieve behind
// PensieveBatchPolicy (an untrained seeded agent: the same arithmetic as a
// trained one). Each session's next decision waits for its chunk download.
#include <cmath>
#include <optional>

#include "abr/mpc.hpp"
#include "abr/mpc_dp.hpp"
#include "abr/pensieve.hpp"
#include "abr/qoe_model.hpp"
#include "probes.hpp"
#include "serve/engine.hpp"
#include "trace/generators.hpp"
#include "util/thread_pool.hpp"
#include "workload.hpp"

namespace perfbench {

using namespace netadv;

namespace {

struct ServeSize {
  std::size_t traces;
  std::size_t mpc_sessions;
  std::size_t mpc_dp_sessions;
  std::size_t pensieve_sessions;
};

// Pensieve's batched decisions are the cheapest and make up 3/4 of the mix,
// so p50 falls well inside pensieve's latency range; mpc and mpc-dp are
// 1/8 each and the slower of them holds the top 1/8, so p95 falls well
// inside its range.
constexpr ServeSize kFull{64, 48, 48, 288};
constexpr ServeSize kTiny{4, 2, 2, 12};

class Serve final : public Workload {
 public:
  explicit Serve(const Options& options)
      : options_(options), size_(options.tiny ? kTiny : kFull) {}

  void setup() override {
    abr::VideoManifest::Params mp;
    mp.size_variation = 0.0;
    const abr::VideoManifest manifest{mp};
    util::Rng rng{options_.seed};
    engine_.emplace(manifest,
                    trace::FccLikeGenerator{{}}.generate_many(size_.traces, rng));
    ssim_ = abr::load_ssim_table(options_.repo_root +
                                 "/examples/ssim_ladder.csv");
    policy_.emplace(abr::make_pensieve_agent(manifest, options_.seed));
  }

  RoundResult round(bool traced) override;

 private:
  const Options options_;
  const ServeSize size_;
  std::optional<serve::SessionEngine> engine_;
  abr::SsimTable ssim_;
  std::optional<serve::PensieveBatchPolicy> policy_;
};

RoundResult Serve::round(bool traced) {
  util::ThreadPool& pool = util::ThreadPool::global();
  const double lanes = static_cast<double>(pool.thread_count());
  const abr::VideoManifest& m = engine_->manifest();
  RoundResult r;
  FailureTally tally;
  reset_lanes();

  std::vector<serve::SessionSummary> summaries;
  std::size_t ticks = 0;
  std::uint64_t batches = 0;
  std::uint64_t batch_decisions = 0;
  double self_s = 0.0;
  const TimedSpan timed;
  auto serve_run = [&](auto&& run) {
    serve::ServeStats stats;
    const Clock::time_point start = Clock::now();
    std::vector<serve::SessionSummary> got = run(stats);
    const double wall = seconds_since(start);
    const Lane l = take_lanes();
    double decide = 0.0;
    for (double d : l.decide_s) decide += d;
    self_s += wall - decide / lanes - l.batch_infer_s;
    if (traced) {
      for (std::size_t k = 0; k < kProtoCount; ++k) {
        r.layers["abr.protocol." + std::string{proto_name(static_cast<Proto>(k))} +
                 ".decide_s"] += l.decide_s[k] / lanes;
        r.counts["abr.protocol." + std::string{proto_name(static_cast<Proto>(k))} +
                 ".decisions"] += static_cast<double>(l.decisions[k]);
      }
      r.layers["rl.batch_infer_s"] += l.batch_infer_s;
      batches += l.batches;
      batch_decisions += l.batch_decisions;
    }
    r.decisions += stats.decisions;
    ticks += stats.ticks;
    r.latency_s.insert(r.latency_s.end(), stats.decision_latency_s.begin(),
                       stats.decision_latency_s.end());
    summaries.insert(summaries.end(), got.begin(), got.end());
  };

  abr::LinQoe lin;
  serve_run([&](serve::ServeStats& stats) {
    const abr::ProtocolFactory make = [] {
      return std::unique_ptr<abr::AbrProtocol>(new abr::RobustMpc{});
    };
    return engine_->run(probed_factory(make, kMpc, tally, traced), lin,
                        size_.mpc_sessions, &pool, &stats);
  });
  abr::SsimTableQoe ssim{ssim_};
  serve_run([&](serve::ServeStats& stats) {
    const abr::ProtocolFactory make = [this] {
      return std::unique_ptr<abr::AbrProtocol>(new abr::MpcDp{
          abr::MpcDp::Params{}, std::make_unique<abr::SsimTableQoe>(ssim_)});
    };
    return engine_->run(probed_factory(make, kMpcDp, tally, traced), ssim,
                        size_.mpc_dp_sessions, &pool, &stats);
  });
  serve_run([&](serve::ServeStats& stats) {
    ProbedBatchPolicy probed{*policy_};
    return engine_->run(traced ? static_cast<serve::BatchPolicy&>(probed)
                               : static_cast<serve::BatchPolicy&>(*policy_),
                        lin, size_.pensieve_sessions, &pool, &stats);
  });
  timed.stop(r);

  // Output checks: every session plays every chunk, never rebuffers a
  // negative time, and scores a finite QoE.
  std::size_t failed = tally.bad_instances.load();
  for (const serve::SessionSummary& s : summaries) {
    if (s.chunks != m.num_chunks() || !(s.rebuffer_s >= 0.0) ||
        !std::isfinite(s.qoe) || !std::isfinite(s.qoe_lin)) {
      ++failed;
    }
    hash_double(r.digest, static_cast<double>(s.chunks));
    hash_double(r.digest, s.qoe);
    hash_double(r.digest, s.qoe_lin);
    hash_double(r.digest, s.rebuffer_s);
    hash_double(r.digest, s.mean_bitrate_mbps);
    hash_double(r.digest, static_cast<double>(s.quality_switches));
  }
  r.attempted =
      size_.mpc_sessions + size_.mpc_dp_sessions + size_.pensieve_sessions;
  if (summaries.size() != r.attempted) failed = r.attempted;
  r.failed = std::min(failed, r.attempted);

  if (traced) {
    r.layers["serve.self_s"] = self_s;
    r.counts["serve.ticks"] = static_cast<double>(ticks);
    r.counts["serve.decisions"] = static_cast<double>(r.decisions);
    r.counts["rl.batch_size_mean"] =
        batches == 0 ? 0.0
                     : static_cast<double>(batch_decisions) /
                           static_cast<double>(batches);
  }
  return r;
}

}  // namespace

std::unique_ptr<Workload> make_serve(const Options& options) {
  return std::make_unique<Serve>(options);
}

}  // namespace perfbench
