// Tests for the trace substrate: the Trace container, CSV round-trips, and
// the statistical character of each synthetic generator.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <stdexcept>

#include "trace/generators.hpp"
#include "trace/trace.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace {

using namespace netadv::trace;
using netadv::util::Rng;

Trace make_simple_trace() {
  return Trace{{
      {1.0, 2.0, 50.0, 0.0},
      {2.0, 4.0, 50.0, 0.01},
      {1.0, 1.0, 60.0, 0.0},
  }};
}

TEST(Trace, DurationAndMeanBandwidth) {
  const Trace t = make_simple_trace();
  EXPECT_DOUBLE_EQ(t.total_duration_s(), 4.0);
  // (2*1 + 4*2 + 1*1) / 4 = 11/4
  EXPECT_DOUBLE_EQ(t.mean_bandwidth_mbps(), 2.75);
}

TEST(Trace, AtTimeSelectsSegment) {
  const Trace t = make_simple_trace();
  EXPECT_DOUBLE_EQ(t.at_time(0.5).bandwidth_mbps, 2.0);
  EXPECT_DOUBLE_EQ(t.at_time(1.5).bandwidth_mbps, 4.0);
  EXPECT_DOUBLE_EQ(t.at_time(3.5).bandwidth_mbps, 1.0);
  // Past the end clamps to the final segment (Mahimahi-style replay).
  EXPECT_DOUBLE_EQ(t.at_time(100.0).bandwidth_mbps, 1.0);
}

TEST(Trace, AtTimeOnEmptyThrows) {
  const Trace t;
  EXPECT_THROW(t.at_time(0.0), std::logic_error);
}

TEST(Trace, BandwidthTotalVariation) {
  const Trace t = make_simple_trace();
  // |4-2| + |1-4| = 5
  EXPECT_DOUBLE_EQ(t.bandwidth_total_variation(), 5.0);
}

TEST(Trace, CsvRoundTrip) {
  const Trace t = make_simple_trace();
  const std::string path =
      (std::filesystem::temp_directory_path() / "netadv_trace_test.csv").string();
  save_trace(t, path);
  const Trace loaded = load_trace(path);
  ASSERT_EQ(loaded.size(), t.size());
  for (std::size_t i = 0; i < t.size(); ++i) {
    EXPECT_DOUBLE_EQ(loaded[i].duration_s, t[i].duration_s);
    EXPECT_DOUBLE_EQ(loaded[i].bandwidth_mbps, t[i].bandwidth_mbps);
    EXPECT_DOUBLE_EQ(loaded[i].latency_ms, t[i].latency_ms);
    EXPECT_DOUBLE_EQ(loaded[i].loss_rate, t[i].loss_rate);
  }
  std::remove(path.c_str());
}

TEST(Trace, SavesReportAFullDisk) {
  if (!std::filesystem::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  const Trace trace = make_simple_trace();
  EXPECT_THROW(save_trace(trace, "/dev/full"), std::runtime_error);
  EXPECT_THROW(save_trace_set({trace, trace}, "/dev/full"), std::runtime_error);
}

TEST(Trace, LoadMissingFileThrows) {
  EXPECT_THROW(load_trace("/nonexistent/trace.csv"), std::runtime_error);
}

// ---------------------------------------------------------------- generators

TEST(UniformRandomGenerator, StaysInBounds) {
  UniformRandomGenerator::Params p;
  p.segments = 200;
  p.bandwidth_min_mbps = 0.8;
  p.bandwidth_max_mbps = 4.8;
  UniformRandomGenerator gen{p};
  Rng rng{61};
  const Trace t = gen.generate(rng);
  ASSERT_EQ(t.size(), 200u);
  for (const auto& s : t.segments()) {
    EXPECT_GE(s.bandwidth_mbps, 0.8);
    EXPECT_LE(s.bandwidth_mbps, 4.8);
    EXPECT_DOUBLE_EQ(s.duration_s, 4.0);
  }
}

TEST(UniformRandomGenerator, MeanIsMidRange) {
  UniformRandomGenerator::Params p;
  p.segments = 5000;
  UniformRandomGenerator gen{p};
  Rng rng{67};
  const Trace t = gen.generate(rng);
  EXPECT_NEAR(t.mean_bandwidth_mbps(), (0.8 + 4.8) / 2.0, 0.1);
}

TEST(UniformRandomGenerator, RejectsBadParams) {
  UniformRandomGenerator::Params p;
  p.bandwidth_min_mbps = 4.0;
  p.bandwidth_max_mbps = 1.0;
  EXPECT_THROW(UniformRandomGenerator{p}, std::invalid_argument);
}

TEST(FccLikeGenerator, IsSmootherThanUniform) {
  // The broadband model holds levels; its per-segment variation should be
  // far below an i.i.d. uniform process over the same range.
  FccLikeGenerator fcc{{}};
  UniformRandomGenerator uniform{{}};
  Rng rng{71};
  double fcc_tv = 0.0;
  double uni_tv = 0.0;
  for (int i = 0; i < 50; ++i) {
    fcc_tv += fcc.generate(rng).bandwidth_total_variation();
    uni_tv += uniform.generate(rng).bandwidth_total_variation();
  }
  EXPECT_LT(fcc_tv, 0.5 * uni_tv);
}

TEST(FccLikeGenerator, StaysInBounds) {
  FccLikeGenerator gen{{}};
  Rng rng{73};
  for (int i = 0; i < 20; ++i) {
    const Trace t = gen.generate(rng);
    for (const auto& s : t.segments()) {
      EXPECT_GE(s.bandwidth_mbps, 0.8);
      EXPECT_LE(s.bandwidth_mbps, 4.8);
      EXPECT_DOUBLE_EQ(s.loss_rate, 0.0);
    }
  }
}

TEST(Hsdpa3gLikeGenerator, IsHarderThanBroadband) {
  // The 3G model must have lower mean bandwidth and deeper dips — that gap is
  // exactly what Figure 4's cross-dataset cells rely on.
  FccLikeGenerator fcc{{}};
  Hsdpa3gLikeGenerator tg{{}};
  Rng rng{79};
  netadv::util::RunningStat fcc_bw;
  netadv::util::RunningStat tg_bw;
  double tg_min = 1e9;
  for (int i = 0; i < 50; ++i) {
    fcc_bw.add(fcc.generate(rng).mean_bandwidth_mbps());
    const Trace t = tg.generate(rng);
    tg_bw.add(t.mean_bandwidth_mbps());
    for (const auto& s : t.segments()) tg_min = std::min(tg_min, s.bandwidth_mbps);
  }
  EXPECT_LT(tg_bw.mean(), fcc_bw.mean());
  EXPECT_LT(tg_min, 0.5);  // deep dips exist
}

TEST(Hsdpa3gLikeGenerator, StaysInBounds) {
  Hsdpa3gLikeGenerator gen{{}};
  Rng rng{83};
  for (int i = 0; i < 20; ++i) {
    const Trace t = gen.generate(rng);
    for (const auto& s : t.segments()) {
      EXPECT_GE(s.bandwidth_mbps, 0.2);
      EXPECT_LE(s.bandwidth_mbps, 4.8);
    }
  }
}

TEST(TraceGenerator, GenerateManyProducesDistinctTraces) {
  UniformRandomGenerator gen{{}};
  Rng rng{101};
  const auto traces = gen.generate_many(5, rng);
  ASSERT_EQ(traces.size(), 5u);
  EXPECT_NE(traces[0][0].bandwidth_mbps, traces[1][0].bandwidth_mbps);
}

}  // namespace
