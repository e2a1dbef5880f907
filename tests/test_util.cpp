// Unit tests for netadv::util — RNG determinism and distributional sanity,
// streaming statistics, percentiles/CDFs, and CSV I/O.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "util/config.hpp"
#include "util/csv.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace {

using namespace netadv::util;

// ---------------------------------------------------------------- Rng

TEST(Rng, SameSeedSameStream) {
  Rng a{42};
  Rng b{42};
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a{1};
  Rng b{2};
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a() == b()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng{7};
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng{8};
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform(3.0, 9.0);
    EXPECT_GE(u, 3.0);
    EXPECT_LT(u, 9.0);
  }
}

TEST(Rng, UniformMeanIsCentered) {
  Rng rng{9};
  RunningStat stat;
  for (int i = 0; i < 100000; ++i) stat.add(rng.uniform());
  EXPECT_NEAR(stat.mean(), 0.5, 0.01);
}

TEST(Rng, UniformIntCoversRangeInclusive) {
  Rng rng{10};
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 10000; ++i) {
    const auto v = rng.uniform_int(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= (v == -3);
    saw_hi |= (v == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, NormalMomentsMatch) {
  Rng rng{11};
  RunningStat stat;
  for (int i = 0; i < 200000; ++i) stat.add(rng.normal());
  EXPECT_NEAR(stat.mean(), 0.0, 0.02);
  EXPECT_NEAR(stat.stddev(), 1.0, 0.02);
}

TEST(Rng, NormalWithParamsShiftsAndScales) {
  Rng rng{12};
  RunningStat stat;
  for (int i = 0; i < 100000; ++i) stat.add(rng.normal(5.0, 2.0));
  EXPECT_NEAR(stat.mean(), 5.0, 0.05);
  EXPECT_NEAR(stat.stddev(), 2.0, 0.05);
}

TEST(Rng, ExponentialMeanMatchesRate) {
  Rng rng{13};
  RunningStat stat;
  for (int i = 0; i < 100000; ++i) stat.add(rng.exponential(4.0));
  EXPECT_NEAR(stat.mean(), 0.25, 0.01);
}

TEST(Rng, BernoulliFrequencyMatchesP) {
  Rng rng{14};
  int hits = 0;
  for (int i = 0; i < 100000; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / 100000.0, 0.3, 0.01);
}

TEST(Rng, ForkIsIndependentOfParentAdvance) {
  Rng parent{99};
  Rng child = parent.fork();
  const auto child_first = child();
  // Re-derive the same child from an identically seeded parent.
  Rng parent2{99};
  Rng child2 = parent2.fork();
  for (int i = 0; i < 100; ++i) (void)parent2();  // advancing parent2 later
  EXPECT_EQ(child_first, child2());
}

TEST(Rng, IndexStaysInRange) {
  Rng rng{15};
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.index(7), 7u);
}

// ---------------------------------------------------------------- RunningStat

TEST(RunningStat, KnownSequence) {
  RunningStat s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStat, SingleSampleHasZeroVariance) {
  RunningStat s;
  s.add(3.5);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.mean(), 3.5);
}

TEST(RunningStat, ResetClears) {
  RunningStat s;
  s.add(1.0);
  s.add(2.0);
  s.reset();
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.count(), 0u);
}

// ---------------------------------------------------------------- percentile / cdf

TEST(Percentile, MedianOfOddSet) {
  const std::vector<double> xs{5.0, 1.0, 3.0};
  EXPECT_DOUBLE_EQ(percentile(xs, 50.0), 3.0);
}

TEST(Percentile, InterpolatesBetweenOrderStats) {
  const std::vector<double> xs{0.0, 10.0};
  EXPECT_DOUBLE_EQ(percentile(xs, 25.0), 2.5);
}

TEST(Percentile, ExtremesAreMinMax) {
  const std::vector<double> xs{7.0, -2.0, 4.0};
  EXPECT_DOUBLE_EQ(percentile(xs, 0.0), -2.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 100.0), 7.0);
}

TEST(Percentile, ThrowsOnEmptyOrBadP) {
  const std::vector<double> empty;
  const std::vector<double> one{1.0};
  EXPECT_THROW(percentile(empty, 50.0), std::invalid_argument);
  EXPECT_THROW(percentile(one, -1.0), std::invalid_argument);
  EXPECT_THROW(percentile(one, 101.0), std::invalid_argument);
}

TEST(EmpiricalCdf, SortedAndMonotone) {
  const std::vector<double> xs{3.0, 1.0, 2.0, 2.0};
  const auto cdf = empirical_cdf(xs);
  ASSERT_EQ(cdf.size(), 4u);
  EXPECT_DOUBLE_EQ(cdf.front().value, 1.0);
  EXPECT_DOUBLE_EQ(cdf.back().value, 3.0);
  EXPECT_DOUBLE_EQ(cdf.back().cumulative_probability, 1.0);
  for (std::size_t i = 1; i < cdf.size(); ++i) {
    EXPECT_LE(cdf[i - 1].value, cdf[i].value);
    EXPECT_LT(cdf[i - 1].cumulative_probability, cdf[i].cumulative_probability);
  }
}

TEST(Mean, EmptyIsZero) {
  const std::vector<double> xs;
  EXPECT_DOUBLE_EQ(mean(xs), 0.0);
}

// ---------------------------------------------------------------- csv

TEST(Csv, RoundTrip) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "netadv_csv_test.csv").string();
  {
    CsvWriter writer{path};
    writer.write_row(std::vector<std::string>{"a", "b"});
    writer.write_row(std::vector<double>{1.5, -2.0});
    writer.write_row(std::vector<double>{0.0, 1e6});
  }
  const CsvTable table = read_csv(path);
  ASSERT_EQ(table.header.size(), 2u);
  EXPECT_EQ(table.header[0], "a");
  ASSERT_EQ(table.rows.size(), 2u);
  EXPECT_DOUBLE_EQ(table.rows[0][0], 1.5);
  EXPECT_DOUBLE_EQ(table.rows[0][1], -2.0);
  EXPECT_DOUBLE_EQ(table.rows[1][1], 1e6);
  std::remove(path.c_str());
}

TEST(Csv, CloseReportsAFailedWriteNamingThePath) {
  // /dev/full accepts the open and fails every write: a full disk.
  if (!std::filesystem::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  CsvWriter writer{"/dev/full"};
  writer.write_row(std::vector<std::string>{"a", "b"});
  for (int i = 0; i < 10; ++i) {
    writer.write_row(std::vector<double>{static_cast<double>(i), 2.0});
  }
  try {
    writer.close();
    FAIL() << "close() reported no error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string{e.what()}.find("/dev/full"), std::string::npos)
        << e.what();
  }
}

TEST(Csv, ReadMissingFileThrows) {
  EXPECT_THROW(read_csv("/nonexistent/netadv.csv"), std::runtime_error);
}

TEST(Csv, NonNumericCellThrows) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "netadv_bad.csv").string();
  {
    CsvWriter writer{path};
    writer.write_row(std::vector<std::string>{"x"});
    writer.write_row(std::vector<std::string>{"not_a_number"});
  }
  EXPECT_THROW(read_csv(path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(Csv, TrailingEmptyCellIsAnErrorNotDropped) {
  // "1.5," is two cells, the second empty. The old parser silently dropped
  // it and accepted the short row; now the empty cell fails numeric parsing.
  const std::string path =
      (std::filesystem::temp_directory_path() / "netadv_trailing.csv").string();
  {
    std::ofstream out{path};
    out << "a,b\n1.5,\n";
  }
  EXPECT_THROW(read_csv(path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(Csv, RaggedRowThrows) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "netadv_ragged.csv").string();
  {
    std::ofstream out{path};
    out << "a,b,c\n1,2,3\n4,5\n";
  }
  EXPECT_THROW(read_csv(path), std::runtime_error);
  std::remove(path.c_str());

  {
    std::ofstream out{path};
    out << "a,b\n1,2,3\n";
  }
  EXPECT_THROW(read_csv(path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(Csv, FormatNumberTrimsNoise) {
  EXPECT_EQ(format_number(1.0), "1");
  EXPECT_EQ(format_number(0.5), "0.5");
}

// ---------------------------------------------------------------- config

TEST(Config, ScaledStepsRespectsFloor) {
  EXPECT_GE(scaled_steps(100000, 256), 256u);
}

}  // namespace
