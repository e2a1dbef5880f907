// Tests for netadv::serve — the session-serving engine's validation and
// summary contracts, the CSV round-trip, the batch-policy seam, and the
// determinism gates (ParallelServe*): session summaries bit-identical
// across thread counts and across the per-session vs batched pensieve
// decision paths.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "abr/bb.hpp"
#include "abr/mpc_dp.hpp"
#include "abr/pensieve.hpp"
#include "abr/qoe_model.hpp"
#include "abr/runner.hpp"
#include "serve/batch_policy.hpp"
#include "serve/engine.hpp"
#include "trace/generators.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace netadv;

const std::size_t kThreadCounts[] = {1, 2, 8};

abr::VideoManifest exact_manifest() {
  abr::VideoManifest::Params p;
  p.size_variation = 0.0;
  return abr::VideoManifest{p};
}

std::vector<trace::Trace> fcc_traces(std::size_t count, std::uint64_t seed) {
  trace::FccLikeGenerator gen{{}};
  util::Rng rng{seed};
  return gen.generate_many(count, rng);
}

abr::ProtocolFactory bb_factory() {
  return []() -> std::unique_ptr<abr::AbrProtocol> {
    return std::make_unique<abr::BufferBased>();
  };
}

TEST(SessionEngine, RejectsEmptyTraceSetAndZeroSessions) {
  EXPECT_THROW(serve::SessionEngine(exact_manifest(), {}),
               std::invalid_argument);
  serve::SessionEngine engine{exact_manifest(), fcc_traces(2, 1)};
  abr::LinQoe qoe;
  EXPECT_THROW(engine.run(bb_factory(), qoe, 0), std::invalid_argument);
}

TEST(SessionEngine, SummariesCoverEverySessionInOrder) {
  const abr::VideoManifest manifest = exact_manifest();
  serve::SessionEngine engine{manifest, fcc_traces(3, 2)};
  abr::LinQoe qoe;
  serve::ServeStats stats;
  const auto summaries = engine.run(bb_factory(), qoe, 7, nullptr, &stats);
  ASSERT_EQ(summaries.size(), 7u);
  for (std::size_t i = 0; i < summaries.size(); ++i) {
    EXPECT_EQ(summaries[i].session, i);
    EXPECT_EQ(summaries[i].trace, i % 3);  // session i streams trace i mod T
    EXPECT_EQ(summaries[i].chunks, manifest.num_chunks());
    EXPECT_GT(summaries[i].mean_bitrate_mbps, 0.0);
    EXPECT_GE(summaries[i].rebuffer_s, 0.0);
  }
  // Same trace -> same deterministic playback, chunk for chunk.
  EXPECT_EQ(summaries[0], [&] {
    serve::SessionSummary s = summaries[3];
    s.session = 0;
    return s;
  }());
  EXPECT_EQ(stats.sessions, 7u);
  EXPECT_EQ(stats.decisions, 7u * manifest.num_chunks());
  EXPECT_EQ(stats.ticks, manifest.num_chunks());
  EXPECT_EQ(stats.decision_latency_s.size(), stats.decisions);
  EXPECT_GT(stats.elapsed_s, 0.0);
}

// One served session must reproduce the single-playback runner exactly:
// same bandwidth-per-chunk convention, same QoE_lin, same switch count.
TEST(SessionEngine, SingleSessionMatchesRunPlayback) {
  const abr::VideoManifest manifest = exact_manifest();
  const std::vector<trace::Trace> traces = fcc_traces(1, 3);
  serve::SessionEngine engine{manifest, traces};
  abr::LinQoe qoe;
  const auto summaries = engine.run(bb_factory(), qoe, 1);
  ASSERT_EQ(summaries.size(), 1u);

  abr::BufferBased bb;
  const abr::PlaybackRecord record =
      abr::run_playback(bb, manifest, traces[0]);
  EXPECT_DOUBLE_EQ(summaries[0].qoe_lin, record.total_qoe);
  EXPECT_DOUBLE_EQ(summaries[0].rebuffer_s, record.total_rebuffer_s);
  EXPECT_DOUBLE_EQ(summaries[0].mean_bitrate_mbps, record.mean_bitrate_mbps);
  EXPECT_EQ(summaries[0].quality_switches, record.quality_switches);
  // Under the lin model the engine's model score is QoE_lin itself.
  EXPECT_DOUBLE_EQ(summaries[0].qoe, summaries[0].qoe_lin);
}

TEST(SessionEngine, QoeModelSelectsTheScore) {
  serve::SessionEngine engine{exact_manifest(), fcc_traces(2, 4)};
  abr::LinQoe lin;
  abr::SsimTableQoe ssim;
  const auto lin_sum = engine.run(bb_factory(), lin, 4);
  const auto ssim_sum = engine.run(bb_factory(), ssim, 4);
  ASSERT_EQ(lin_sum.size(), ssim_sum.size());
  for (std::size_t i = 0; i < lin_sum.size(); ++i) {
    // Same playback either way (qoe_lin is model-independent)...
    EXPECT_DOUBLE_EQ(lin_sum[i].qoe_lin, ssim_sum[i].qoe_lin);
    EXPECT_EQ(lin_sum[i].quality_switches, ssim_sum[i].quality_switches);
    // ...but the model column differs (ssim scores in dB, not Mbps).
    EXPECT_NE(lin_sum[i].qoe, ssim_sum[i].qoe);
  }
}

TEST(SessionSummaryCsv, RoundTripsByteIdentically) {
  serve::SessionEngine engine{exact_manifest(), fcc_traces(2, 5)};
  abr::LinQoe qoe;
  const auto summaries = engine.run(bb_factory(), qoe, 3);
  const std::string dir =
      (std::filesystem::temp_directory_path() / "netadv_serve_test").string();
  std::filesystem::create_directories(dir);
  const std::string a = dir + "/a.csv";
  const std::string b = dir + "/b.csv";
  serve::save_session_summaries(summaries, a);
  serve::save_session_summaries(summaries, b);
  const auto slurp = [](const std::string& path) {
    std::ifstream in{path};
    return std::string{std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>()};
  };
  const std::string text = slurp(a);
  EXPECT_EQ(text, slurp(b));  // equal summaries -> byte-equal files
  EXPECT_NE(text.find("session,trace,chunks,qoe,qoe_lin,rebuffer_s,"
                      "mean_bitrate_mbps,quality_switches"),
            std::string::npos);
  EXPECT_THROW(
      serve::save_session_summaries(summaries, dir + "/no/such/dir.csv"),
      std::runtime_error);
}

TEST(SessionSummaryCsv, SaveReportsAFullDisk) {
  if (!std::filesystem::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  serve::SessionEngine engine{exact_manifest(), fcc_traces(2, 5)};
  abr::LinQoe qoe;
  const auto summaries = engine.run(bb_factory(), qoe, 3);
  EXPECT_THROW(serve::save_session_summaries(summaries, "/dev/full"),
               std::runtime_error);
}

// ------------------------------------------------------ batch policy seam

TEST(BatchPolicy, PensieveRequiresBeginServing) {
  const rl::PpoAgent agent = abr::make_pensieve_agent(exact_manifest(), 1);
  serve::PensieveBatchPolicy policy{agent};
  abr::AbrObservation obs;
  const abr::AbrObservation* ptr = &obs;
  EXPECT_THROW(policy.choose_batch({&ptr, 1}), std::logic_error);
}

TEST(SessionEngine, BatchSizeMismatchIsALogicError) {
  struct BrokenPolicy final : serve::BatchPolicy {
    std::string name() const override { return "broken"; }
    void begin_serving(const abr::VideoManifest&) override {}
    std::vector<std::size_t> choose_batch(
        std::span<const abr::AbrObservation* const>) override {
      return {};  // always the wrong count
    }
  };
  serve::SessionEngine engine{exact_manifest(), fcc_traces(1, 6)};
  abr::LinQoe qoe;
  BrokenPolicy policy;
  EXPECT_THROW(engine.run(policy, qoe, 2), std::logic_error);
}

// ----------------------------------------------- determinism (TSan lane)

TEST(ParallelServe, BbSummariesAreIdenticalAcrossThreadCounts) {
  serve::SessionEngine engine{exact_manifest(), fcc_traces(4, 7)};
  abr::LinQoe qoe;
  const auto reference = engine.run(bb_factory(), qoe, 12);  // sequential
  for (std::size_t threads : kThreadCounts) {
    util::ThreadPool pool{threads};
    EXPECT_EQ(engine.run(bb_factory(), qoe, 12, &pool), reference)
        << threads << " threads";
  }
}

TEST(ParallelServe, MpcDpSummariesAreIdenticalAcrossThreadCounts) {
  serve::SessionEngine engine{exact_manifest(), fcc_traces(2, 8)};
  abr::SsimTableQoe qoe;
  const auto dp_factory = []() -> std::unique_ptr<abr::AbrProtocol> {
    return std::make_unique<abr::MpcDp>(abr::MpcDp::Params{},
                                        std::make_unique<abr::SsimTableQoe>());
  };
  const auto reference = engine.run(dp_factory, qoe, 4);
  for (std::size_t threads : kThreadCounts) {
    util::ThreadPool pool{threads};
    EXPECT_EQ(engine.run(dp_factory, qoe, 4, &pool), reference)
        << threads << " threads";
  }
}

// The batched pensieve path must be a pure optimization: one
// act_deterministic_batch per tick produces the same decisions (hence the
// same summaries) as a private OwnedPensievePolicy per session, at every
// thread count.
TEST(ParallelServe, BatchedPensieveMatchesPerSessionExactly) {
  const abr::VideoManifest manifest = exact_manifest();
  const rl::PpoAgent agent = abr::make_pensieve_agent(manifest, 9);
  serve::SessionEngine engine{manifest, fcc_traces(3, 9)};
  abr::LinQoe qoe;
  const auto per_factory = [&agent]() -> std::unique_ptr<abr::AbrProtocol> {
    return std::make_unique<abr::OwnedPensievePolicy>(agent);
  };
  const auto reference = engine.run(per_factory, qoe, 9);
  for (std::size_t threads : kThreadCounts) {
    util::ThreadPool pool{threads};
    serve::PensieveBatchPolicy policy{agent};
    EXPECT_EQ(engine.run(policy, qoe, 9, &pool), reference)
        << threads << " threads";
  }
}

}  // namespace
