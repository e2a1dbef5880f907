// Tests for the ABR substrate: video manifest, QoE_lin, the streaming
// simulator's conservation invariants, BB's rate map, MPC's prediction and
// planning, the offline optimum, and the playback runner.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "abr/bb.hpp"
#include "abr/mpc.hpp"
#include "abr/mpc_dp.hpp"
#include "abr/qoe_model.hpp"
#include "abr/optimal.hpp"
#include "abr/qoe.hpp"
#include "abr/runner.hpp"
#include "abr/sim.hpp"
#include "abr/video.hpp"
#include "trace/generators.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"

namespace {

using namespace netadv::abr;
using netadv::trace::Segment;
using netadv::trace::Trace;
using netadv::util::Rng;

VideoManifest exact_manifest() {
  VideoManifest::Params p;
  p.size_variation = 0.0;  // sizes exactly bitrate * duration
  return VideoManifest{p};
}

Trace constant_trace(double bw_mbps, std::size_t segments = 48,
                     double duration = 4.0) {
  Trace t;
  for (std::size_t i = 0; i < segments; ++i) {
    t.append({duration, bw_mbps, 80.0, 0.0});
  }
  return t;
}

// ---------------------------------------------------------------- manifest

TEST(VideoManifest, DefaultsMatchPensieveSetup) {
  const VideoManifest m;
  EXPECT_EQ(m.num_qualities(), 6u);
  EXPECT_EQ(m.num_chunks(), 48u);
  EXPECT_DOUBLE_EQ(m.chunk_duration_s(), 4.0);
  EXPECT_DOUBLE_EQ(m.bitrate_kbps(0), 300.0);
  EXPECT_DOUBLE_EQ(m.bitrate_kbps(5), 4300.0);
  EXPECT_DOUBLE_EQ(m.max_bitrate_mbps(), 4.3);
  EXPECT_DOUBLE_EQ(m.total_duration_s(), 192.0);
}

TEST(VideoManifest, ChunkSizeIsBitrateTimesDuration) {
  const VideoManifest m = exact_manifest();
  // 300 kbps * 4 s = 1.2 Mbit
  EXPECT_NEAR(m.chunk_size_bits(0, 0), 1.2e6, 1.0);
  EXPECT_NEAR(m.chunk_size_bits(10, 5), 17.2e6, 1.0);
}

TEST(VideoManifest, SizesVaryButStayBounded) {
  VideoManifest::Params p;
  p.size_variation = 0.1;
  const VideoManifest m{p};
  for (std::size_t i = 0; i < m.num_chunks(); ++i) {
    const double nominal = 1.2e6;
    const double s = m.chunk_size_bits(i, 0);
    EXPECT_GE(s, nominal * 0.9 - 1.0);
    EXPECT_LE(s, nominal * 1.1 + 1.0);
  }
}

TEST(VideoManifest, SameSeedSameSizes) {
  const VideoManifest a;
  const VideoManifest b;
  for (std::size_t i = 0; i < a.num_chunks(); ++i) {
    EXPECT_DOUBLE_EQ(a.chunk_size_bits(i, 3), b.chunk_size_bits(i, 3));
  }
}

TEST(VideoManifest, ChunkSizesVectorMatchesScalar) {
  const VideoManifest m;
  const auto sizes = m.chunk_sizes_bits(7);
  ASSERT_EQ(sizes.size(), 6u);
  for (std::size_t q = 0; q < 6; ++q) {
    EXPECT_DOUBLE_EQ(sizes[q], m.chunk_size_bits(7, q));
  }
}

TEST(VideoManifest, ValidatesParameters) {
  VideoManifest::Params bad;
  bad.bitrates_kbps = {300, 300};
  EXPECT_THROW(VideoManifest{bad}, std::invalid_argument);
  bad.bitrates_kbps = {};
  EXPECT_THROW(VideoManifest{bad}, std::invalid_argument);
  VideoManifest::Params bad2;
  bad2.num_chunks = 0;
  EXPECT_THROW(VideoManifest{bad2}, std::invalid_argument);
  VideoManifest::Params bad3;
  bad3.size_variation = 1.5;
  EXPECT_THROW(VideoManifest{bad3}, std::invalid_argument);
}

TEST(VideoManifest, OutOfRangeChunkThrows) {
  const VideoManifest m;
  EXPECT_THROW(m.chunk_size_bits(48, 0), std::out_of_range);
  EXPECT_THROW(m.chunk_size_bits(0, 6), std::out_of_range);
}

// ---------------------------------------------------------------- qoe

TEST(Qoe, ChunkQoeComponents) {
  const QoeParams p;
  // 2 Mbps, 1 s stall, previous 3 Mbps: 2 - 4.3 - 1 = -3.3
  EXPECT_NEAR(chunk_qoe(2.0, 1.0, 3.0, p), -3.3, 1e-12);
  EXPECT_NEAR(chunk_qoe(2.0, 0.0, 2.0, p), 2.0, 1e-12);
}

TEST(Qoe, TotalQoeMatchesPaperFormula) {
  // R = {1, 3, 2}, T = {0, 0.5, 0}:
  // sum R = 6; 4.3 * 0.5 = 2.15; |3-1| + |2-3| = 3  ->  0.85
  const std::vector<double> r{1.0, 3.0, 2.0};
  const std::vector<double> t{0.0, 0.5, 0.0};
  EXPECT_NEAR(total_qoe(r, t), 0.85, 1e-12);
}

TEST(Qoe, SmoothnessChargedOncePerTransition) {
  const std::vector<double> r{1.0, 1.0, 1.0};
  const std::vector<double> t{0.0, 0.0, 0.0};
  EXPECT_NEAR(total_qoe(r, t), 3.0, 1e-12);
}

TEST(Qoe, RejectsBadSpans) {
  const std::vector<double> r{1.0};
  const std::vector<double> t;
  EXPECT_THROW(total_qoe(r, t), std::invalid_argument);
}

TEST(Qoe, BadSpanErrorsNameBothSizes) {
  const std::vector<double> r{1.0, 2.0};
  const std::vector<double> t{0.0, 0.0, 0.0};
  try {
    total_qoe(r, t);
    FAIL() << "expected throw";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("2 bitrates"), std::string::npos) << what;
    EXPECT_NE(what.find("3 rebuffer entries"), std::string::npos) << what;
  }
  EXPECT_THROW(total_qoe({}, {}), std::invalid_argument);
}

// ---------------------------------------------------------------- qoe models

TEST(QoeModel, LinTotalScoreMatchesTotalQoeExactly) {
  const VideoManifest m = exact_manifest();
  LinQoe lin;
  lin.begin_video(m);
  const std::vector<std::size_t> qualities{0, 3, 2, 5, 5};
  const std::vector<double> rebuffers{1.0, 0.0, 0.5, 0.0, 0.25};
  std::vector<double> bitrates;
  for (const std::size_t q : qualities) bitrates.push_back(m.bitrate_mbps(q));
  EXPECT_DOUBLE_EQ(lin.total_score(qualities, rebuffers),
                   total_qoe(bitrates, rebuffers));
  EXPECT_DOUBLE_EQ(lin.quality_score(0, 5), 4.3);
  EXPECT_DOUBLE_EQ(lin.rebuffer_penalty(), 4.3);
}

TEST(QoeModel, ScoringBeforeBeginVideoIsALogicError) {
  LinQoe lin;
  EXPECT_THROW(lin.quality_score(0, 0), std::logic_error);
  LogQoe log;
  EXPECT_THROW(log.total_score(std::vector<std::size_t>{0},
                               std::vector<double>{0.0}),
               std::logic_error);
}

TEST(QoeModel, OutOfRangeErrorsEnumerateTheValidRanges) {
  const VideoManifest m = exact_manifest();  // 48 chunks x 6 qualities
  SsimTableQoe ssim;
  ssim.begin_video(m);
  try {
    ssim.quality_score(48, 0);
    FAIL() << "expected throw";
  } catch (const std::out_of_range& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("chunk 48 out of range [0, 48)"), std::string::npos)
        << what;
  }
  try {
    ssim.quality_score(0, 6);
    FAIL() << "expected throw";
  } catch (const std::out_of_range& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("quality 6 out of range [0, 6)"), std::string::npos)
        << what;
  }
}

TEST(QoeModel, LogIsZeroAtTheFloorAndConcave) {
  const VideoManifest m = exact_manifest();
  LogQoe log;
  log.begin_video(m);
  EXPECT_DOUBLE_EQ(log.quality_score(0, 0), 0.0);
  // Monotone in quality, with diminishing returns (concavity).
  double prev_score = 0.0;
  double prev_gain = std::numeric_limits<double>::infinity();
  for (std::size_t q = 1; q < m.num_qualities(); ++q) {
    const double score = log.quality_score(0, q);
    const double gain = score - prev_score;
    EXPECT_GT(gain, 0.0) << q;
    EXPECT_LT(gain, prev_gain) << q;
    prev_score = score;
    prev_gain = gain;
  }
}

// A table whose every row equals the bitrate ladder reduces the ssim model
// to QoE_lin (given lin's penalty weights): the table seam changes the
// quality axis, not the scoring structure.
TEST(QoeModel, BitrateIdentityTableReproducesQoeLin) {
  const VideoManifest m = exact_manifest();
  SsimTable table(m.num_chunks(), std::vector<double>(m.num_qualities()));
  for (auto& row : table) {
    for (std::size_t q = 0; q < m.num_qualities(); ++q) {
      row[q] = m.bitrate_mbps(q);
    }
  }
  SsimTableQoe ssim{std::move(table),
                    SsimTableQoe::Params{.rebuffer_penalty = 4.3,
                                         .smoothness_penalty = 1.0}};
  ssim.begin_video(m);
  const std::vector<std::size_t> qualities{1, 4, 4, 0, 2};
  const std::vector<double> rebuffers{0.0, 0.0, 1.5, 0.0, 0.0};
  std::vector<double> bitrates;
  for (const std::size_t q : qualities) bitrates.push_back(m.bitrate_mbps(q));
  EXPECT_DOUBLE_EQ(ssim.total_score(qualities, rebuffers),
                   total_qoe(bitrates, rebuffers));
}

TEST(QoeModel, SyntheticSsimTableIsMonotoneInQuality) {
  const VideoManifest m = exact_manifest();
  const SsimTable table = synthetic_ssim_table(m);
  ASSERT_EQ(table.size(), m.num_chunks());
  for (const auto& row : table) {
    ASSERT_EQ(row.size(), m.num_qualities());
    for (std::size_t q = 1; q < row.size(); ++q) {
      EXPECT_GT(row[q], row[q - 1]);  // more bits, better picture
    }
  }
}

TEST(QoeModel, SsimTableCsvRoundTrips) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / "netadv_qoe_test").string();
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/table.csv";
  const VideoManifest m = exact_manifest();
  const SsimTable table = synthetic_ssim_table(m);
  save_ssim_table(table, path);
  const SsimTable loaded = load_ssim_table(path);
  ASSERT_EQ(loaded.size(), table.size());
  for (std::size_t i = 0; i < table.size(); ++i) {
    ASSERT_EQ(loaded[i].size(), table[i].size()) << i;
    for (std::size_t q = 0; q < table[i].size(); ++q) {
      EXPECT_NEAR(loaded[i][q], table[i][q],
                  1e-5 * std::abs(table[i][q]) + 1e-9);
    }
  }
  // Loaded tables drive the model end to end.
  SsimTableQoe qoe{loaded};
  qoe.begin_video(m);
  EXPECT_NEAR(qoe.quality_score(0, 3), table[0][3],
              1e-5 * std::abs(table[0][3]));
}

TEST(QoeModel, SsimTableLoadRejectsBadHeaderAndOrder) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / "netadv_qoe_test").string();
  std::filesystem::create_directories(dir);
  const std::string bad_header = dir + "/bad_header.csv";
  std::ofstream{bad_header} << "idx,q0\n0,1.0\n";
  EXPECT_THROW(load_ssim_table(bad_header), std::runtime_error);
  const std::string out_of_order = dir + "/out_of_order.csv";
  std::ofstream{out_of_order} << "chunk,q0\n1,1.0\n0,2.0\n";
  EXPECT_THROW(load_ssim_table(out_of_order), std::runtime_error);
  EXPECT_THROW(load_ssim_table(dir + "/missing.csv"), std::runtime_error);
  EXPECT_THROW(save_ssim_table({}, dir + "/empty.csv"), std::runtime_error);
}

TEST(QoeModel, SsimTableSaveReportsAFullDisk) {
  if (!std::filesystem::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  EXPECT_THROW(save_ssim_table(synthetic_ssim_table(exact_manifest()),
                               "/dev/full"),
               std::runtime_error);
}

TEST(QoeModel, SsimTableLoadIsStrictAboutRowsAndIndices) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / "netadv_qoe_strict").string();
  std::filesystem::create_directories(dir);
  const auto expect_rejects = [&](const std::string& name,
                                  const std::string& content,
                                  const std::string& needle) {
    const std::string path = dir + "/" + name;
    std::ofstream{path} << content;
    try {
      load_ssim_table(path);
      FAIL() << name << " must not load";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string{e.what()}.find(needle), std::string::npos)
          << name << ": " << e.what();
    }
  };
  // A header with no chunk rows is an empty table, not a valid one.
  expect_rejects("header_only.csv", "chunk,q0,q1\n", "header-only");
  // A ragged row is rejected with the offending row named, never padded or
  // truncated to the header width.
  expect_rejects("ragged.csv", "chunk,q0,q1\n0,1.0,2.0\n1,3.0\n", "row");
  // Indices must match exactly: 2.9 is not chunk 2, and a negative index
  // must not wrap into range.
  expect_rejects("fractional.csv", "chunk,q0\n0,1.0\n1,2.0\n2.9,3.0\n",
                 "exact");
  expect_rejects("negative.csv", "chunk,q0\n-0.5,1.0\n", "exact");
}

TEST(QoeModel, SsimTableDimensionMismatchNamesBothShapes) {
  SsimTableQoe qoe{SsimTable{{1.0, 2.0}, {1.0, 2.0}}};  // 2 x 2
  try {
    qoe.begin_video(exact_manifest());  // 48 x 6
    FAIL() << "expected throw";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("2 x 2"), std::string::npos) << what;
    EXPECT_NE(what.find("48 chunks x 6 qualities"), std::string::npos) << what;
  }
  EXPECT_THROW(SsimTableQoe{SsimTable{}}, std::invalid_argument);
}

// ---------------------------------------------------------------- sim

TEST(StreamingSession, FirstChunkColdStartStalls) {
  const VideoManifest m = exact_manifest();
  StreamingSession s{m};
  // 1.2 Mbit at 1.2 Mbps -> 1 s download, all of it stalled (empty buffer).
  const DownloadResult r = s.download_next(0, 1.2);
  EXPECT_NEAR(r.download_time_s, 1.0, 1e-9);
  EXPECT_NEAR(r.rebuffer_s, 1.0, 1e-9);
  EXPECT_NEAR(r.buffer_after_s, 4.0, 1e-9);
  EXPECT_EQ(s.next_chunk(), 1u);
}

TEST(StreamingSession, BufferAbsorbsDownloadTime) {
  const VideoManifest m = exact_manifest();
  StreamingSession s{m};
  s.download_next(0, 12.0);  // dt = 0.1 s, buffer -> 3.9 + ... = 4 - 0.1? no:
  // After chunk 1: buffer = max(0, 0-0.1)+4 = 4.0 - wait, 0.1 s of it stalls.
  // Second chunk at same rate: dt = 0.1, buffer 4 -> 3.9 + 4 = 7.9, no stall.
  const DownloadResult r = s.download_next(0, 12.0);
  EXPECT_NEAR(r.rebuffer_s, 0.0, 1e-9);
  EXPECT_NEAR(r.buffer_after_s, 7.9, 1e-9);
}

TEST(StreamingSession, BufferCapsAndSleeps) {
  const VideoManifest m = exact_manifest();
  StreamingSession s{m, {.max_buffer_s = 8.0}};
  s.download_next(0, 1000.0);
  s.download_next(0, 1000.0);
  const DownloadResult r = s.download_next(0, 1000.0);
  EXPECT_GT(r.sleep_s, 0.0);
  EXPECT_NEAR(r.buffer_after_s, 8.0, 1e-6);
}

TEST(StreamingSession, BufferNeverNegativeAndTimeMonotone) {
  const VideoManifest m;
  StreamingSession s{m};
  Rng rng{7};
  double last_clock = 0.0;
  while (!s.finished()) {
    const auto q = rng.index(m.num_qualities());
    const double bw = rng.uniform(0.3, 5.0);
    const DownloadResult r = s.download_next(q, bw);
    EXPECT_GE(r.buffer_after_s, 0.0);
    EXPECT_GE(r.rebuffer_s, 0.0);
    EXPECT_GE(s.clock_s(), last_clock);
    last_clock = s.clock_s();
  }
  EXPECT_EQ(s.next_chunk(), m.num_chunks());
}

TEST(StreamingSession, WallClockAccountsForPlaybackConservation) {
  // With no sleeping and no stalls the clock equals sum of download times;
  // stalls add on top. Invariant: clock >= sum(download) and
  // clock == sum(download) + sum(sleep).
  const VideoManifest m = exact_manifest();
  StreamingSession s{m};
  double dl = 0.0;
  double sleep = 0.0;
  while (!s.finished()) {
    const DownloadResult r = s.download_next(2, 2.0);
    dl += r.download_time_s;
    sleep += r.sleep_s;
  }
  EXPECT_NEAR(s.clock_s(), dl + sleep, 1e-9);
}

TEST(StreamingSession, FinishedSessionThrows) {
  VideoManifest::Params p;
  p.num_chunks = 2;
  const VideoManifest m{p};
  StreamingSession s{m};
  s.download_next(0, 1.0);
  s.download_next(0, 1.0);
  EXPECT_TRUE(s.finished());
  EXPECT_THROW(s.download_next(0, 1.0), std::logic_error);
}

TEST(StreamingSession, ValidatesInputs) {
  const VideoManifest m;
  StreamingSession s{m};
  EXPECT_THROW(s.download_next(99, 1.0), std::invalid_argument);
  EXPECT_THROW(s.download_next(0, 0.0), std::invalid_argument);
  EXPECT_THROW((StreamingSession{m, {.max_buffer_s = -1.0}}),
               std::invalid_argument);
}

TEST(StreamingSession, RestartResets) {
  const VideoManifest m;
  StreamingSession s{m};
  s.download_next(0, 1.0);
  s.restart();
  EXPECT_EQ(s.next_chunk(), 0u);
  EXPECT_DOUBLE_EQ(s.buffer_s(), 0.0);
  EXPECT_DOUBLE_EQ(s.clock_s(), 0.0);
}

// ---------------------------------------------------------------- bb

TEST(BufferBased, RateMapEndpoints) {
  const VideoManifest m;
  BufferBased bb;
  bb.begin_video(m);
  AbrObservation obs;
  obs.buffer_s = 5.0;  // below reservoir
  EXPECT_EQ(bb.choose_quality(obs), 0u);
  obs.buffer_s = 10.0;  // at reservoir boundary
  EXPECT_EQ(bb.choose_quality(obs), 0u);
  obs.buffer_s = 15.0;  // at reservoir + cushion
  EXPECT_EQ(bb.choose_quality(obs), 5u);
  obs.buffer_s = 40.0;
  EXPECT_EQ(bb.choose_quality(obs), 5u);
}

TEST(BufferBased, RateMapIsMonotoneInBuffer) {
  const VideoManifest m;
  BufferBased bb;
  bb.begin_video(m);
  AbrObservation obs;
  std::size_t last = 0;
  for (double b = 0.0; b <= 20.0; b += 0.25) {
    obs.buffer_s = b;
    const std::size_t q = bb.choose_quality(obs);
    EXPECT_GE(q, last);
    last = q;
  }
  EXPECT_EQ(last, 5u);
}

TEST(BufferBased, SwitchingBandIsReservoirToCushion) {
  // The paper: BB changes rate when buffer is in the 10-15 s range.
  const VideoManifest m;
  BufferBased bb;
  bb.begin_video(m);
  AbrObservation obs;
  obs.buffer_s = 12.5;
  const std::size_t mid = bb.choose_quality(obs);
  EXPECT_GT(mid, 0u);
  EXPECT_LT(mid, 5u);
}

TEST(BufferBased, RequiresBeginVideo) {
  BufferBased bb;
  AbrObservation obs;
  EXPECT_THROW(bb.choose_quality(obs), std::logic_error);
}

TEST(BufferBased, ValidatesParams) {
  EXPECT_THROW((BufferBased{{.reservoir_s = -1.0, .cushion_s = 5.0}}),
               std::invalid_argument);
  EXPECT_THROW((BufferBased{{.reservoir_s = 5.0, .cushion_s = 0.0}}),
               std::invalid_argument);
}

// ---------------------------------------------------------------- predictor

AbrObservation with_history(std::vector<double> history_mbps) {
  AbrObservation obs;
  obs.throughput_history_mbps = std::move(history_mbps);
  return obs;
}

TEST(ThroughputPredictor, DiscountsByTheLargestRelativeError) {
  RobustThroughputPredictor predictor{5};
  predictor.reset(0.3);
  // No error history yet: the plain harmonic mean.
  EXPECT_DOUBLE_EQ(predictor.predict(with_history({2.0})), 2.0);
  // Predicted 2.0, then 1.0 arrived: a relative error of |2 - 1| / 1 = 1.
  const AbrObservation second = with_history({1.0, 2.0});
  const double mean = harmonic_mean_mbps(second.throughput_history_mbps, 5);
  EXPECT_DOUBLE_EQ(predictor.predict(second), mean / 2.0);
  EXPECT_DOUBLE_EQ(predictor.estimate(second), mean / 2.0);
  // Predicted 4/3, then 4.0 arrived: error 2/3 < 1, so the discount holds.
  const AbrObservation third = with_history({4.0, 1.0, 2.0});
  EXPECT_DOUBLE_EQ(predictor.predict(third),
                   harmonic_mean_mbps(third.throughput_history_mbps, 5) / 2.0);
}

TEST(ThroughputPredictor, OldErrorsLeaveTheWindow) {
  RobustThroughputPredictor predictor{2};
  predictor.reset(0.3);
  std::vector<double> history{2.0};
  predictor.predict(with_history(history));
  history.insert(history.begin(), 1.0);  // predicted 2, got 1: error 1
  EXPECT_DOUBLE_EQ(predictor.predict(with_history(history)),
                   harmonic_mean_mbps(history, 2) / 2.0);
  // From here each sample equals the mean predicted before it (error 0).
  history.insert(history.begin(), harmonic_mean_mbps(history, 2));
  EXPECT_DOUBLE_EQ(predictor.predict(with_history(history)),
                   harmonic_mean_mbps(history, 2) / 2.0);  // errors {1, 0}
  history.insert(history.begin(), harmonic_mean_mbps(history, 2));
  EXPECT_DOUBLE_EQ(predictor.predict(with_history(history)),
                   harmonic_mean_mbps(history, 2));  // errors {0, 0}
}

TEST(ThroughputPredictor, ResetForgetsErrorsAndSetsTheColdStart) {
  RobustThroughputPredictor predictor{5};
  predictor.reset(0.3);
  predictor.predict(with_history({2.0}));
  predictor.predict(with_history({1.0, 2.0}));
  predictor.reset(0.75);
  EXPECT_DOUBLE_EQ(predictor.estimate(AbrObservation{}), 0.75);
  EXPECT_DOUBLE_EQ(predictor.predict(AbrObservation{}), 0.75);
  const AbrObservation obs = with_history({1.0, 2.0, 4.0});
  EXPECT_DOUBLE_EQ(predictor.estimate(obs), 12.0 / 7.0);
}

// ---------------------------------------------------------------- mpc

TEST(RobustMpc, PredictsHarmonicMean) {
  // A fresh predictor has no error history, so nothing is discounted.
  const VideoManifest m;
  RobustMpc mpc;
  mpc.begin_video(m);
  AbrObservation obs;
  obs.throughput_history_mbps = {1.0, 2.0, 4.0};
  EXPECT_NEAR(mpc.predicted_throughput_mbps(obs), 12.0 / 7.0, 1e-9);
}

TEST(RobustMpc, ColdStartPredictsLowestBitrate) {
  const VideoManifest m;
  RobustMpc mpc;
  mpc.begin_video(m);
  AbrObservation obs;
  EXPECT_NEAR(mpc.predicted_throughput_mbps(obs), 0.3, 1e-9);
}

TEST(RobustMpc, PicksHighRateOnFastStableLink) {
  const VideoManifest m = exact_manifest();
  RobustMpc mpc;
  const Trace t = constant_trace(4.8);
  const PlaybackRecord record = run_playback(mpc, m, t);
  // Steady 4.8 Mbps: after ramp-up MPC should sit at 2.85 or 4.3 Mbps.
  int high = 0;
  for (std::size_t i = 8; i < record.chunks.size(); ++i) {
    if (record.chunks[i].bitrate_mbps >= 2.85) ++high;
  }
  EXPECT_GT(high, 35);
  EXPECT_NEAR(record.total_rebuffer_s, 0.0, 0.5);
}

TEST(RobustMpc, PicksLowRateOnSlowLink) {
  const VideoManifest m = exact_manifest();
  RobustMpc mpc;
  const Trace t = constant_trace(0.4);
  const PlaybackRecord record = run_playback(mpc, m, t);
  for (std::size_t i = 4; i < record.chunks.size(); ++i) {
    EXPECT_LE(record.chunks[i].bitrate_mbps, 0.75);
  }
}

TEST(RobustMpc, ValidatesParams) {
  EXPECT_THROW((RobustMpc{{.horizon = 0}}), std::invalid_argument);
  EXPECT_THROW((RobustMpc{{.throughput_window = 0}}), std::invalid_argument);
}

TEST(RobustMpc, RequiresBeginVideo) {
  RobustMpc mpc;
  AbrObservation obs;
  EXPECT_THROW(mpc.choose_quality(obs), std::logic_error);
}

// Both planners size their lookahead from the chunks left, so a decision
// past the last chunk must fail loudly rather than plan over nothing.
TEST(RobustMpc, RejectsAChunkPastTheEndOfTheVideo) {
  const VideoManifest m;
  RobustMpc mpc;
  MpcDp dp;
  mpc.begin_video(m);
  dp.begin_video(m);
  AbrObservation obs;
  obs.chunk_index = m.num_chunks();
  EXPECT_THROW(mpc.choose_quality(obs), std::out_of_range);
  EXPECT_THROW(dp.choose_quality(obs), std::out_of_range);
}

// Brute-force reference for RobustMpc's plan search: an odometer over all
// Q^H plans in lexicographic order (last chunk fastest), each plan's QoE_lin
// summed forward in depth order, the first strict maximum winning.
struct EnumeratedChoice {
  std::size_t first = 0;  ///< first quality of the first best plan
  std::size_t ties = 0;   ///< plans whose QoE equals the best
};

EnumeratedChoice exhaustive_mpc_choice(const VideoManifest& m,
                                       const AbrObservation& obs,
                                       double predicted_mbps,
                                       const RobustMpc::Params& params) {
  const std::size_t num_q = m.num_qualities();
  const std::size_t depth =
      std::min(params.horizon, m.num_chunks() - obs.chunk_index);
  std::vector<std::size_t> plan(depth, 0);
  EnumeratedChoice choice;
  double best = -std::numeric_limits<double>::infinity();
  for (;;) {
    double buffer = obs.buffer_s;
    double prev_bitrate = obs.last_bitrate_mbps;
    double qoe = 0.0;
    for (std::size_t d = 0; d < depth; ++d) {
      const double dt = m.chunk_size_bits(obs.chunk_index + d, plan[d]) /
                        (predicted_mbps * 1e6);
      const double rebuffer = std::max(0.0, dt - buffer);
      buffer = std::min(std::max(0.0, buffer - dt) + m.chunk_duration_s(),
                        params.max_buffer_s);
      const double bitrate = m.bitrate_mbps(plan[d]);
      qoe += chunk_qoe(bitrate, rebuffer, prev_bitrate, params.qoe);
      prev_bitrate = bitrate;
    }
    if (qoe > best) {
      best = qoe;
      choice.first = plan[0];
      choice.ties = 1;
    } else if (qoe == best) {
      ++choice.ties;
    }
    std::size_t d = depth;
    while (d > 0 && ++plan[d - 1] == num_q) {
      plan[d - 1] = 0;
      --d;
    }
    if (d == 0) return choice;
  }
}

// QoE settings the pruned search must survive: the defaults; no rebuffer
// penalty (the bound keeps only lambda = 0); a penalty below the largest
// fixed multiplier; no smoothness charge; a buffer cap below one chunk's
// duration; and a heavy penalty with a tight cap.
std::vector<RobustMpc::Params> search_variants(std::size_t horizon) {
  return {{.horizon = horizon},
          {.horizon = horizon, .qoe = {.rebuffer_penalty = 0.0}},
          {.horizon = horizon, .qoe = {.rebuffer_penalty = 0.3}},
          {.horizon = horizon, .qoe = {.smoothness_penalty = 0.0}},
          {.horizon = horizon, .max_buffer_s = 2.5},
          {.horizon = horizon,
           .qoe = {.rebuffer_penalty = 50.0, .smoothness_penalty = 3.0},
           .max_buffer_s = 8.0}};
}

// RobustMpc's search is exact: on seeded observations it picks the same
// first quality as enumerating every plan. The cases cycle through a cold
// start at chunk 0, each of the last four chunks (depth limit below the
// horizon), a full buffer, a link so slow every plan rebuffers, and random
// mid-video states, on a 3-rung and the default 6-rung ladder, under every
// search_variants() QoE setting plus randomized ones (rebuffer penalty
// 0-50, smoothness 0-3, buffer cap 2-60 s).
TEST(RobustMpc, SearchMatchesExhaustiveEnumeration) {
  VideoManifest::Params three_rungs;
  three_rungs.bitrates_kbps = {300, 1200, 4300};
  const VideoManifest ladders[] = {VideoManifest{three_rungs},
                                   VideoManifest{}};
  Rng rng{16};
  std::size_t checked = 0;
  for (const VideoManifest& m : ladders) {
    const std::size_t last_chunk = m.num_chunks() - 1;
    for (const std::size_t horizon : {1, 3, 5}) {
      std::vector<RobustMpc::Params> variants = search_variants(horizon);
      for (int r = 0; r < 3; ++r) {
        variants.push_back({.horizon = horizon,
                            .qoe = {.rebuffer_penalty = rng.uniform(0.0, 50.0),
                                    .smoothness_penalty = rng.uniform(0.0, 3.0)},
                            .max_buffer_s = rng.uniform(2.0, 60.0)});
      }
      for (const RobustMpc::Params& params : variants) {
        RobustMpc mpc{params};
        for (std::size_t i = 0; i < 40; ++i) {
          const std::size_t kind = i % 8;
          AbrObservation obs;
          obs.chunk_index = kind == 0   ? 0
                            : kind <= 4 ? last_chunk + 1 - kind
                                        : 1 + rng.index(last_chunk);
          obs.remaining_chunks = m.num_chunks() - obs.chunk_index;
          obs.buffer_s = kind == 5 ? params.max_buffer_s
                                   : rng.uniform(0.0, params.max_buffer_s);
          if (obs.chunk_index > 0) {
            obs.last_quality = rng.index(m.num_qualities());
            obs.last_bitrate_mbps = m.bitrate_mbps(obs.last_quality);
            const std::size_t samples = 1 + rng.index(8);
            // A full buffer meets a slow link, so the cap at max_buffer_s
            // shapes the later downloads' stalls.
            const double lo = kind == 6 ? 0.005 : 0.2;
            const double hi = kind == 6 ? 0.01 : kind == 5 ? 1.0 : 6.0;
            for (std::size_t s = 0; s < samples; ++s) {
              obs.throughput_history_mbps.push_back(rng.uniform(lo, hi));
            }
          }
          mpc.begin_video(m);
          const double predicted = mpc.predicted_throughput_mbps(obs);
          EXPECT_EQ(mpc.choose_quality(obs),
                    exhaustive_mpc_choice(m, obs, predicted, params).first)
              << "ladder " << m.num_qualities() << ", horizon " << horizon
              << ", chunk " << obs.chunk_index << ", buffer " << obs.buffer_s
              << ", rebuffer penalty " << params.qoe.rebuffer_penalty
              << ", smoothness " << params.qoe.smoothness_penalty
              << ", max buffer " << params.max_buffer_s;
          ++checked;
        }
      }
    }
  }
  EXPECT_GE(checked, 2000u);
}

// On a fast link nothing rebuffers, so every rung at or above the previous
// bitrate scores the same under the default smoothness charge and equal
// plans are everywhere: the best constant plan that seeds the incumbent is
// often itself optimal, and the search must not skip the subtree holding
// a plan that only ties it. The bound does prune here, and the counter
// says so.
TEST(RobustMpc, PrunedSearchMatchesEnumerationOnFastLinks) {
  const VideoManifest m;
  Rng rng{24};
  std::size_t tied = 0;
  for (const std::size_t horizon : {2, 3, 5}) {
    for (const RobustMpc::Params& params : search_variants(horizon)) {
      RobustMpc mpc{params};
      for (std::size_t i = 0; i < 40; ++i) {
        AbrObservation obs;
        obs.chunk_index = i % 5 == 0 ? m.num_chunks() - 1 - rng.index(4)
                                     : 1 + rng.index(m.num_chunks() - 1);
        obs.remaining_chunks = m.num_chunks() - obs.chunk_index;
        obs.buffer_s = rng.uniform(0.0, params.max_buffer_s);
        obs.last_quality = rng.index(m.num_qualities());
        obs.last_bitrate_mbps = m.bitrate_mbps(obs.last_quality);
        for (std::size_t s = 0; s < 5; ++s) {
          obs.throughput_history_mbps.push_back(rng.uniform(20.0, 60.0));
        }
        mpc.begin_video(m);
        const double predicted = mpc.predicted_throughput_mbps(obs);
        const EnumeratedChoice expected =
            exhaustive_mpc_choice(m, obs, predicted, params);
        EXPECT_EQ(mpc.choose_quality(obs), expected.first)
            << "horizon " << horizon << ", chunk " << obs.chunk_index
            << ", buffer " << obs.buffer_s << ", rebuffer penalty "
            << params.qoe.rebuffer_penalty << ", smoothness "
            << params.qoe.smoothness_penalty;
        if (expected.ties > 1) ++tied;
      }
      const RobustMpc::SearchStats& stats = mpc.search_stats();
      EXPECT_GT(stats.pruned, 0u) << "horizon " << horizon;
      EXPECT_LT(stats.pruned, stats.nodes);
    }
  }
  EXPECT_GE(tied, 20u);
}

// Wraps RobustMpc and checks each of its decisions against enumeration
// from the same observation and throughput prediction, as a playback
// feeds them.
class EnumerationCheckedMpc final : public AbrProtocol {
 public:
  explicit EnumerationCheckedMpc(RobustMpc::Params params)
      : params_(params), mpc_(params) {}

  std::string name() const override { return "mpc-checked"; }
  void begin_video(const VideoManifest& manifest) override {
    manifest_ = &manifest;
    mpc_.begin_video(manifest);
  }
  std::size_t choose_quality(const AbrObservation& observation) override {
    const std::size_t chosen = mpc_.choose_quality(observation);
    // After the decision the predictor has scored its last prediction, so
    // its estimate is the throughput the decision planned with.
    const double predicted = mpc_.predicted_throughput_mbps(observation);
    const std::size_t expected =
        exhaustive_mpc_choice(*manifest_, observation, predicted, params_)
            .first;
    EXPECT_EQ(chosen, expected) << "chunk " << observation.chunk_index;
    ++decisions_;
    return chosen;
  }
  std::size_t decisions() const noexcept { return decisions_; }

 private:
  RobustMpc::Params params_;
  RobustMpc mpc_;
  const VideoManifest* manifest_ = nullptr;
  std::size_t decisions_ = 0;
};

// Whole videos over seeded FCC-like traces (half on a starved 0.2-2 Mbps
// range, where rebuffering drives the plan): the decision sequence the
// pruned search makes is the enumeration reference's, chunk for chunk,
// with the throughput predictor's state carried across the video.
TEST(RobustMpc, ReplayedDecisionsMatchEnumeration) {
  const VideoManifest m;
  netadv::trace::FccLikeGenerator::Params starved;
  starved.bandwidth_min_mbps = 0.2;
  starved.bandwidth_max_mbps = 2.0;
  Rng rng{2024};
  std::vector<Trace> traces =
      netadv::trace::FccLikeGenerator{}.generate_many(4, rng);
  for (Trace& t :
       netadv::trace::FccLikeGenerator{starved}.generate_many(4, rng)) {
    traces.push_back(std::move(t));
  }
  for (const RobustMpc::Params& params :
       {RobustMpc::Params{}, RobustMpc::Params{.qoe = {.rebuffer_penalty = 0.3}},
        RobustMpc::Params{.max_buffer_s = 2.5}}) {
    EnumerationCheckedMpc checked{params};
    for (const Trace& t : traces) run_playback(checked, m, t);
    EXPECT_EQ(checked.decisions(), traces.size() * m.num_chunks());
  }
}

// ---------------------------------------------------------------- mpc-dp

TEST(MpcDp, PredictorMatchesRobustMpc) {
  // Both planners start a video with a fresh predictor: the undiscounted
  // harmonic mean.
  const VideoManifest m;
  MpcDp dp;
  RobustMpc mpc;
  dp.begin_video(m);
  mpc.begin_video(m);
  AbrObservation obs;
  obs.throughput_history_mbps = {1.0, 2.0, 4.0};
  EXPECT_NEAR(dp.predicted_throughput_mbps(obs), 12.0 / 7.0, 1e-9);
  EXPECT_EQ(dp.predicted_throughput_mbps(obs),
            mpc.predicted_throughput_mbps(obs));
}

TEST(MpcDp, PicksHighRateOnFastStableLink) {
  const VideoManifest m = exact_manifest();
  MpcDp dp;
  const PlaybackRecord record = run_playback(dp, m, constant_trace(4.8));
  int high = 0;
  for (std::size_t i = 8; i < record.chunks.size(); ++i) {
    if (record.chunks[i].bitrate_mbps >= 2.85) ++high;
  }
  EXPECT_GT(high, 35);
  EXPECT_NEAR(record.total_rebuffer_s, 0.0, 0.5);
}

TEST(MpcDp, PicksLowRateOnSlowLink) {
  const VideoManifest m = exact_manifest();
  MpcDp dp;
  const PlaybackRecord record = run_playback(dp, m, constant_trace(0.4));
  for (std::size_t i = 4; i < record.chunks.size(); ++i) {
    EXPECT_LE(record.chunks[i].bitrate_mbps, 0.75);
  }
}

// mpc-dp solves the same lookahead as RobustMpc by value iteration instead
// of Q^H enumeration; under QoE_lin on benign links the two must land in
// the same QoE neighborhood (the DP's buffer discretization allows small
// deviations, not a different operating point).
TEST(MpcDp, TracksRobustMpcQoeOnBenignLinks) {
  const VideoManifest m = exact_manifest();
  for (const double bw : {0.8, 1.6, 3.0, 4.8}) {
    RobustMpc mpc;
    MpcDp dp;
    const Trace t = constant_trace(bw);
    const PlaybackRecord a = run_playback(mpc, m, t);
    const PlaybackRecord b = run_playback(dp, m, t);
    // Within 15% of the enumerating planner's QoE (plus slack for the
    // near-zero crossings at low bandwidths).
    EXPECT_NEAR(b.total_qoe, a.total_qoe,
                0.15 * std::abs(a.total_qoe) + 5.0)
        << "bandwidth " << bw;
  }
}

TEST(MpcDp, PlansAgainstTheConstructedQoeModel) {
  // A model that hates smoothness changes must switch no more often than
  // the lin-planning default on an oscillating link.
  const VideoManifest m = exact_manifest();
  Trace t;
  for (int i = 0; i < 48; ++i) {
    t.append({4.0, i % 2 == 0 ? 4.0 : 1.2, 80.0, 0.0});
  }
  MpcDp lin_dp;
  SsimTableQoe::Params sticky;
  sticky.smoothness_penalty = 50.0;
  MpcDp sticky_dp{{}, std::make_unique<SsimTableQoe>(sticky)};
  const PlaybackRecord a = run_playback(lin_dp, m, t);
  const PlaybackRecord b = run_playback(sticky_dp, m, t);
  EXPECT_LE(b.quality_switches, a.quality_switches);
  EXPECT_EQ(sticky_dp.qoe().name(), "ssim");
}

// Bit-level pin of mpc-dp's decisions: an FNV-1a hash of the quality
// sequences of full playbacks over 20 seeded FCC-like traces (half of them
// on a starved 0.2-2 Mbps range, where rebuffering drives the plan), once
// per shipped QoE model. A change to the value iteration that moves a
// single decision moves the hash.
TEST(MpcDp, DecisionsPinnedOnSeededTraces) {
  const VideoManifest m;
  netadv::trace::FccLikeGenerator::Params starved;
  starved.bandwidth_min_mbps = 0.2;
  starved.bandwidth_max_mbps = 2.0;
  Rng rng{2019};
  std::vector<Trace> traces =
      netadv::trace::FccLikeGenerator{}.generate_many(10, rng);
  for (Trace& t :
       netadv::trace::FccLikeGenerator{starved}.generate_many(10, rng)) {
    traces.push_back(std::move(t));
  }
  const std::pair<std::string, std::string> pinned[] = {
      {"lin", "4487de619fc82572"},
      {"log", "56f7f2bf2790e6cc"},
      {"ssim", "47ad667908ce8a8b"}};
  for (const auto& [model, expected] : pinned) {
    std::unique_ptr<QoeModel> qoe;
    if (model == "lin") qoe = std::make_unique<LinQoe>();
    if (model == "log") qoe = std::make_unique<LogQoe>();
    if (model == "ssim") qoe = std::make_unique<SsimTableQoe>();
    MpcDp dp{{}, std::move(qoe)};
    std::uint64_t hash = netadv::util::kFnvOffsetBasis;
    for (const Trace& t : traces) {
      for (const DownloadResult& chunk : run_playback(dp, m, t).chunks) {
        hash = netadv::util::fnv1a64_accumulate(
            hash, std::string(1, static_cast<char>('0' + chunk.quality)));
      }
    }
    EXPECT_EQ(netadv::util::hash_hex(hash), expected) << model;
  }
}

// Reference for mpc-dp's reachable-row value iteration: the full-table
// form it replaced, which fills every (depth, buffer level) row of every
// depth from the same observation and throughput prediction.
std::size_t full_table_dp_choice(const VideoManifest& m, const QoeModel& qoe,
                                 const MpcDp::Params& params,
                                 const AbrObservation& observation,
                                 double predicted) {
  const std::size_t num_q = m.num_qualities();
  const std::size_t levels = params.buffer_levels;
  const std::size_t depth_limit =
      std::min(params.horizon, m.num_chunks() - observation.chunk_index);
  const double rebuf_pen = qoe.rebuffer_penalty();
  const double smooth_pen = qoe.smoothness_penalty();
  const double chunk_dur = m.chunk_duration_s();
  const double grid = static_cast<double>(levels - 1);
  const double step = params.max_buffer_s / grid;
  const auto level_of = [step](double buffer_s) {
    const double x = buffer_s / step;
    const auto whole = static_cast<std::size_t>(x);
    return whole + (x - static_cast<double>(whole) >= 0.5 ? 1 : 0);
  };
  std::vector<double> dt(num_q), score(num_q), smooth(num_q * num_q),
      base(num_q), value(levels * num_q), next_value(levels * num_q, 0.0);
  const auto tabulate = [&](std::size_t chunk) {
    for (std::size_t q = 0; q < num_q; ++q) {
      dt[q] = m.chunk_size_bits(chunk, q) / (predicted * 1e6);
      score[q] = qoe.quality_score(chunk, q);
    }
  };
  for (std::size_t d = depth_limit; d-- > 1;) {
    const std::size_t chunk = observation.chunk_index + d;
    tabulate(chunk);
    for (std::size_t p = 0; p < num_q; ++p) {
      const double prev_score = qoe.quality_score(chunk - 1, p);
      for (std::size_t q = 0; q < num_q; ++q) {
        smooth[p * num_q + q] = smooth_pen * std::abs(score[q] - prev_score);
      }
    }
    for (std::size_t level = 0; level < levels; ++level) {
      const double buffer =
          static_cast<double>(level) * params.max_buffer_s / grid;
      for (std::size_t q = 0; q < num_q; ++q) {
        const double rebuffer = std::max(0.0, dt[q] - buffer);
        const double next_buffer = std::min(
            std::max(0.0, buffer - dt[q]) + chunk_dur, params.max_buffer_s);
        base[q] = score[q] - rebuf_pen * rebuffer +
                  next_value[level_of(next_buffer) * num_q + q];
      }
      for (std::size_t p = 0; p < num_q; ++p) {
        double best = -1e18;
        for (std::size_t q = 0; q < num_q; ++q) {
          best = std::max(best, base[q] - smooth[p * num_q + q]);
        }
        value[level * num_q + p] = best;
      }
    }
    std::swap(value, next_value);
  }
  const std::size_t chunk = observation.chunk_index;
  const bool first_chunk = chunk == 0;
  const double prev_score =
      first_chunk ? 0.0
                  : qoe.quality_score(chunk - 1, observation.last_quality);
  tabulate(chunk);
  std::size_t best_quality = 0;
  double best = -1e18;
  for (std::size_t q = 0; q < num_q; ++q) {
    const double rebuffer = std::max(0.0, dt[q] - observation.buffer_s);
    const double next_buffer =
        std::min(std::max(0.0, observation.buffer_s - dt[q]) + chunk_dur,
                 params.max_buffer_s);
    const double smooth_charge =
        first_chunk ? 0.0 : smooth_pen * std::abs(score[q] - prev_score);
    const double v = score[q] - rebuf_pen * rebuffer - smooth_charge +
                     next_value[level_of(next_buffer) * num_q + q];
    if (v > best) {
      best = v;
      best_quality = q;
    }
  }
  return best_quality;
}

// mpc-dp computes only the rows reachable from the observed buffer; its
// decision must equal the full table's on random observations under every
// shipped QoE model, at the buffer's extremes and on half-step rounding
// boundaries, at chunk 0 and on the last chunks (lookahead shorter than the
// horizon), on coarse grids, and with a cap below one chunk, where every
// successor clamps to the top level.
TEST(MpcDp, ReachableDpMatchesFullTableDp) {
  const VideoManifest m;
  const std::size_t last_chunk = m.num_chunks() - 1;
  const MpcDp::Params variants[] = {
      {},
      {.buffer_levels = 2},
      {.buffer_levels = 7},
      {.max_buffer_s = 3.0},
      {.horizon = 3, .buffer_levels = 7, .max_buffer_s = 3.0},
  };
  Rng rng{27};
  std::size_t checked = 0;
  for (const std::string model : {"lin", "log", "ssim"}) {
    for (const MpcDp::Params& params : variants) {
      std::unique_ptr<QoeModel> qoe;
      if (model == "lin") qoe = std::make_unique<LinQoe>();
      if (model == "log") qoe = std::make_unique<LogQoe>();
      if (model == "ssim") qoe = std::make_unique<SsimTableQoe>();
      MpcDp dp{params, std::move(qoe)};
      const double step =
          params.max_buffer_s / static_cast<double>(params.buffer_levels - 1);
      for (std::size_t i = 0; i < 240; ++i) {
        const std::size_t kind = i % 10;
        AbrObservation obs;
        obs.chunk_index = kind == 0   ? 0
                          : kind <= 4 ? last_chunk + 1 - kind
                                      : 1 + rng.index(last_chunk);
        obs.remaining_chunks = m.num_chunks() - obs.chunk_index;
        if (obs.chunk_index > 0) {
          obs.last_quality = rng.index(m.num_qualities());
          obs.last_bitrate_mbps = m.bitrate_mbps(obs.last_quality);
          const double ranges[][2] = {{0.2, 1.0}, {0.2, 6.0}, {20.0, 60.0}};
          const double* range = ranges[rng.index(3)];
          const std::size_t samples = 1 + rng.index(8);
          for (std::size_t s = 0; s < samples; ++s) {
            obs.throughput_history_mbps.push_back(
                rng.uniform(range[0], range[1]));
          }
        }
        dp.begin_video(m);
        const double half_step =
            (static_cast<double>(rng.index(params.buffer_levels - 1)) + 0.5) *
            step;
        const std::size_t rung = rng.index(m.num_qualities());
        const double dt =
            m.chunk_size_bits(obs.chunk_index, rung) /
            (dp.predicted_throughput_mbps(obs) * 1e6);
        switch (kind) {
          case 5: obs.buffer_s = params.max_buffer_s; break;
          case 6: obs.buffer_s = 0.0; break;
          case 7: obs.buffer_s = half_step; break;
          case 8:
            // One rung's download lands the buffer on a half step.
            obs.buffer_s =
                std::max(0.0, half_step + dt - m.chunk_duration_s());
            break;
          default: obs.buffer_s = rng.uniform(0.0, params.max_buffer_s);
        }
        const std::size_t chosen = dp.choose_quality(obs);
        const double predicted = dp.predicted_throughput_mbps(obs);
        EXPECT_EQ(chosen,
                  full_table_dp_choice(m, dp.qoe(), params, obs, predicted))
            << model << ", levels " << params.buffer_levels << ", cap "
            << params.max_buffer_s << ", horizon " << params.horizon
            << ", chunk " << obs.chunk_index << ", buffer " << obs.buffer_s;
        ++checked;
      }
      const MpcDp::SearchStats& stats = dp.search_stats();
      EXPECT_GT(stats.evaluated, 0u);
      EXPECT_LE(stats.evaluated, stats.rows);
      if (params.buffer_levels == 100) {
        EXPECT_LT(stats.evaluated, stats.rows / 2) << model;
      }
    }
  }
  EXPECT_GE(checked, 3000u);
}

TEST(MpcDp, ValidatesParamsAndRequiresBeginVideo) {
  EXPECT_THROW((MpcDp{{.horizon = 0}, std::make_unique<LinQoe>()}),
               std::invalid_argument);
  EXPECT_THROW((MpcDp{{.buffer_levels = 0}, std::make_unique<LinQoe>()}),
               std::invalid_argument);
  MpcDp dp;
  AbrObservation obs;
  EXPECT_THROW(dp.choose_quality(obs), std::logic_error);
}

// ---------------------------------------------------------------- optimal

TEST(OfflineOptimal, BeatsEveryProtocolOnRandomTraces) {
  const VideoManifest m = exact_manifest();
  netadv::trace::UniformRandomGenerator gen{{}};
  Rng rng{11};
  BufferBased bb;
  RobustMpc mpc;
  for (int i = 0; i < 5; ++i) {
    const Trace t = gen.generate(rng);
    const OptimalPlan plan = optimal_playback(m, t);
    const double bb_qoe = run_playback(bb, m, t).total_qoe;
    const double mpc_qoe = run_playback(mpc, m, t).total_qoe;
    // Small slack for DP buffer quantization.
    EXPECT_GE(plan.total_qoe + 0.5, bb_qoe) << "trace " << i;
    EXPECT_GE(plan.total_qoe + 0.5, mpc_qoe) << "trace " << i;
  }
}

TEST(OfflineOptimal, PlanQoeMatchesReplay) {
  const VideoManifest m = exact_manifest();
  const Trace t = constant_trace(2.0);
  const OptimalPlan plan = optimal_playback(m, t);
  ASSERT_EQ(plan.qualities.size(), m.num_chunks());

  // Replay the plan through the real simulator and recompute QoE.
  StreamingSession s{m};
  std::vector<double> bitrates;
  std::vector<double> rebuffers;
  for (std::size_t i = 0; i < plan.qualities.size(); ++i) {
    const DownloadResult r = s.download_next(plan.qualities[i], 2.0);
    bitrates.push_back(r.bitrate_mbps);
    rebuffers.push_back(r.rebuffer_s);
  }
  const double replay_qoe = total_qoe(bitrates, rebuffers);
  EXPECT_NEAR(plan.total_qoe, replay_qoe, 1.0);  // quantization slack
}

TEST(OfflineOptimal, SaturatesAtTopRateOnFastLink) {
  const VideoManifest m = exact_manifest();
  const Trace t = constant_trace(50.0);
  const OptimalPlan plan = optimal_playback(m, t);
  int top = 0;
  for (std::size_t q : plan.qualities) top += (q == 5) ? 1 : 0;
  EXPECT_GT(top, 40);
}

TEST(OptimalWindow, OptimalAtLeastAnyFixedPlan) {
  const VideoManifest m = exact_manifest();
  const std::vector<double> bw{1.0, 3.0, 0.9, 2.5};
  const double opt = optimal_window_qoe(m, 10, 8.0, 1.2, bw);
  Rng rng{13};
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<std::size_t> plan(4);
    for (auto& q : plan) q = rng.index(6);
    const double fixed = window_qoe(m, 10, 8.0, 1.2, plan, bw);
    EXPECT_GE(opt + 1e-9, fixed);
  }
}

TEST(OptimalWindow, WindowQoeHandComputed) {
  const VideoManifest m = exact_manifest();
  // One chunk at quality 0 (1.2 Mbit) over 1.2 Mbps from a 4 s buffer:
  // dt = 1 s, no stall, qoe = 0.3 - |0.3 - 0.3| = 0.3.
  const std::vector<std::size_t> plan{0};
  const std::vector<double> bw{1.2};
  EXPECT_NEAR(window_qoe(m, 0, 4.0, 0.3, plan, bw), 0.3, 1e-9);
  // Same but from empty buffer: 1 s stall -> 0.3 - 4.3 = -4.0.
  EXPECT_NEAR(window_qoe(m, 0, 0.0, 0.3, plan, bw), -4.0, 1e-9);
}

TEST(OptimalWindow, ValidatesInputs) {
  const VideoManifest m;
  const std::vector<double> empty;
  EXPECT_THROW(optimal_window_qoe(m, 0, 0.0, 0.3, empty),
               std::invalid_argument);
  const std::vector<double> bad{-1.0};
  EXPECT_THROW(optimal_window_qoe(m, 0, 0.0, 0.3, bad), std::invalid_argument);
  const std::vector<std::size_t> plan{0};
  const std::vector<double> bw{1.0, 2.0};
  EXPECT_THROW(window_qoe(m, 0, 0.0, 0.3, plan, bw), std::invalid_argument);
}

TEST(OptimalWindow, WindowPastVideoEndIsTruncated) {
  VideoManifest::Params p;
  p.num_chunks = 2;
  p.size_variation = 0.0;
  const VideoManifest m{p};
  const std::vector<double> bw{2.0, 2.0, 2.0, 2.0};
  // Only 2 chunks remain from chunk 0; should not throw.
  const double q = optimal_window_qoe(m, 0, 0.0, 0.3, bw);
  EXPECT_GT(q, -1e17);
}

// The Equation-1 oracle before it read a download-time table: recursion
// over the manifest, one chunk_size_bits per node, each level scored
// here + rest. Kept as the bit-level reference for the tabulated form.
double untabulated_window_qoe(const VideoManifest& m, std::size_t start_chunk,
                              std::size_t depth, double buffer, double prev,
                              const std::vector<double>& bandwidths,
                              const QoeParams& qoe, double max_buffer_s) {
  const std::size_t chunk = start_chunk + depth;
  if (depth >= bandwidths.size() || chunk >= m.num_chunks()) return 0.0;
  double best = -std::numeric_limits<double>::infinity();
  for (std::size_t q = 0; q < m.num_qualities(); ++q) {
    const double dt =
        m.chunk_size_bits(chunk, q) / (bandwidths[depth] * 1e6);
    const double rebuffer = std::max(0.0, dt - buffer);
    const double buffer_after =
        std::min(std::max(0.0, buffer - dt) + m.chunk_duration_s(), max_buffer_s);
    const double bitrate = m.bitrate_mbps(q);
    const double here = chunk_qoe(bitrate, rebuffer, prev, qoe);
    const double rest =
        untabulated_window_qoe(m, start_chunk, depth + 1, buffer_after, bitrate,
                               bandwidths, qoe, max_buffer_s);
    best = std::max(best, here + rest);
  }
  return best;
}

// optimal_window_qoe returns exactly the untabulated recursion's double on
// windows of 1-5 chunks: random states, windows running past the video's
// end, an all-rebuffer slow link from an empty buffer, and a buffer at the
// cap on a fast link, under default and randomized QoE settings.
TEST(OptimalWindow, MatchesUntabulatedRecursion) {
  const VideoManifest m;
  Rng rng{77};
  std::size_t checked = 0;
  for (std::size_t i = 0; i < 400; ++i) {
    const std::size_t kind = i % 4;
    const QoeParams qoe =
        i % 8 < 4 ? QoeParams{}
                  : QoeParams{.rebuffer_penalty = rng.uniform(0.0, 50.0),
                              .smoothness_penalty = rng.uniform(0.0, 3.0)};
    const double max_buffer_s = i % 3 == 0 ? 60.0 : rng.uniform(2.0, 60.0);
    std::vector<double> bandwidths(1 + rng.index(5));
    const double lo = kind == 2 ? 0.01 : kind == 3 ? 20.0 : 0.2;
    const double hi = kind == 2 ? 0.02 : kind == 3 ? 60.0 : 6.0;
    for (double& bw : bandwidths) bw = rng.uniform(lo, hi);
    const std::size_t start_chunk =
        kind == 1 ? m.num_chunks() - 1 - rng.index(3)
                  : rng.index(m.num_chunks());
    const double buffer = kind == 2   ? 0.0
                          : kind == 3 ? max_buffer_s
                                      : rng.uniform(0.0, max_buffer_s);
    const double prev = m.bitrate_mbps(rng.index(m.num_qualities()));
    EXPECT_EQ(optimal_window_qoe(m, start_chunk, buffer, prev, bandwidths, qoe,
                                 max_buffer_s),
              untabulated_window_qoe(m, start_chunk, 0, buffer, prev,
                                     bandwidths, qoe, max_buffer_s))
        << "case " << i << ", start " << start_chunk << ", window "
        << bandwidths.size();
    ++checked;
  }
  // Every plan of an empty-buffer window on a 0.01-0.02 Mbps link stalls.
  const std::vector<double> crawl{0.01, 0.015, 0.01, 0.02};
  const double stalled = optimal_window_qoe(m, 3, 0.0, 0.3, crawl);
  EXPECT_LT(stalled, -1000.0);
  EXPECT_EQ(stalled, untabulated_window_qoe(m, 3, 0, 0.0, 0.3, crawl,
                                            QoeParams{}, 60.0));
  EXPECT_EQ(checked, 400u);
}

// ---------------------------------------------------------------- runner

TEST(Runner, BandwidthForChunkClampsToLastSegment) {
  const Trace t = constant_trace(2.0, 3);
  EXPECT_DOUBLE_EQ(bandwidth_for_chunk(t, 0), 2.0);
  EXPECT_DOUBLE_EQ(bandwidth_for_chunk(t, 99), 2.0);
  const Trace empty;
  EXPECT_THROW(bandwidth_for_chunk(empty, 0), std::invalid_argument);
}

TEST(Runner, RecordsAreInternallyConsistent) {
  const VideoManifest m;
  BufferBased bb;
  const Trace t = constant_trace(2.0);
  const PlaybackRecord r = run_playback(bb, m, t);
  ASSERT_EQ(r.chunks.size(), m.num_chunks());
  double rebuf = 0.0;
  for (const auto& c : r.chunks) rebuf += c.rebuffer_s;
  EXPECT_NEAR(r.total_rebuffer_s, rebuf, 1e-9);
  EXPECT_NEAR(r.mean_chunk_qoe * static_cast<double>(m.num_chunks()),
              r.total_qoe, 1e-9);
  EXPECT_GT(r.mean_bitrate_mbps, 0.0);
}

TEST(Runner, HistoryWindowIsBounded) {
  // A protocol that asserts on the history length it sees.
  class Probe final : public AbrProtocol {
   public:
    std::string name() const override { return "probe"; }
    void begin_video(const VideoManifest&) override {}
    std::size_t choose_quality(const AbrObservation& obs) override {
      EXPECT_LE(obs.throughput_history_mbps.size(), 3u);
      EXPECT_LE(obs.download_time_history_s.size(), 3u);
      if (!obs.throughput_history_mbps.empty()) {
        max_seen = std::max(max_seen, obs.throughput_history_mbps.size());
      }
      return 0;
    }
    std::size_t max_seen = 0;
  };
  const VideoManifest m;
  Probe probe;
  run_playback(probe, m, constant_trace(2.0), {}, /*history_window=*/3);
  EXPECT_EQ(probe.max_seen, 3u);
}

TEST(Runner, QoePerTraceMatchesSingleRuns) {
  const VideoManifest m;
  BufferBased bb;
  const std::vector<Trace> traces{constant_trace(1.0), constant_trace(3.0)};
  const auto qoes = qoe_per_trace(bb, m, traces);
  ASSERT_EQ(qoes.size(), 2u);
  EXPECT_NEAR(qoes[0], run_playback(bb, m, traces[0]).mean_chunk_qoe, 1e-12);
  EXPECT_NEAR(qoes[1], run_playback(bb, m, traces[1]).mean_chunk_qoe, 1e-12);
  EXPECT_GT(qoes[1], qoes[0]);  // faster link, better QoE
}

TEST(Runner, FasterLinkNeverHurtsBb) {
  const VideoManifest m;
  BufferBased bb;
  double last = -1e18;
  for (double bw : {0.5, 1.0, 2.0, 4.0}) {
    const double qoe = run_playback(bb, m, constant_trace(bw)).total_qoe;
    EXPECT_GE(qoe, last - 1e-9);
    last = qoe;
  }
}

}  // namespace
