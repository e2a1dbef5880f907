// Tests for the helpers the bench binaries share (bench/common).
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench/common/bench_common.hpp"

namespace {

TEST(BenchCsv, WriteCsvReportsAFullDisk) {
  // The artifact is a link to /dev/full (a full disk): write_csv must throw
  // rather than return the path of a truncated file.
  if (!std::filesystem::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "netadv_bench_full_disk";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  std::filesystem::create_symlink("/dev/full", dir / "table.csv");
  const char* previous = std::getenv("NETADV_OUT_DIR");
  const std::string saved = previous != nullptr ? previous : "";
  setenv("NETADV_OUT_DIR", dir.c_str(), 1);
  EXPECT_THROW(netadv::bench::write_csv("table.csv", {"a", "b"},
                                        {{1.0, 2.0}, {3.0, 4.0}}),
               std::runtime_error);
  if (previous != nullptr) {
    setenv("NETADV_OUT_DIR", saved.c_str(), 1);
  } else {
    unsetenv("NETADV_OUT_DIR");
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
