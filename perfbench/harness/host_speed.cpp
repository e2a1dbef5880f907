#include "host_speed.hpp"

#include <time.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <unordered_map>
#include <vector>

namespace perfbench {

namespace {

// General-purpose library code rather than a tight loop: a sort (branchy
// compares over 128 KiB), a hash map built and probed (allocation and
// scattered loads) and %.17g formatting with FNV hashing (long, branchy
// code paths). On a shared VM the workloads' rounds ran up to 1.3x faster or
// slower for minutes at a time; a tight mat-vec and scalar loop moved only
// about half as much in those spells, while sort, hash-map and formatting
// times followed the rounds more closely.
constexpr std::size_t kSortValues = std::size_t{1} << 14;
constexpr std::size_t kMapKeys = std::size_t{1} << 13;
constexpr int kMapProbes = 4;
constexpr int kFormatted = 6000;

std::uint64_t next_random(std::uint64_t& state) {
  state = state * 6364136223846793005ull + 1442695040888963407ull;
  return state >> 11;
}

struct Inputs {
  std::vector<double> values;
  std::vector<std::uint64_t> keys;

  Inputs() : values(kSortValues), keys(kMapKeys) {
    std::uint64_t state = 0x9e3779b97f4a7c15ull;
    for (double& v : values) v = static_cast<double>(next_random(state) % 1000000) * 1e-3;
    for (std::uint64_t& k : keys) k = next_random(state);
  }
};

double reference_work(const Inputs& in) {
  std::vector<double> sorted = in.values;
  std::sort(sorted.begin(), sorted.end());
  double acc = sorted[sorted.size() / 2];

  std::unordered_map<std::uint64_t, std::uint32_t> map;
  for (std::size_t i = 0; i < in.keys.size(); ++i) {
    map[in.keys[i]] = static_cast<std::uint32_t>(i);
  }
  for (int probe = 0; probe < kMapProbes; ++probe) {
    for (std::size_t i = 0; i < in.keys.size(); ++i) {
      const auto it = map.find(in.keys[(i * 7 + probe) % in.keys.size()] ^ (probe & 1));
      if (it != map.end()) acc += it->second;
    }
  }

  char text[32];
  std::uint64_t hash = 1469598103934665603ull;
  for (int i = 0; i < kFormatted; ++i) {
    const int n = std::snprintf(text, sizeof text, "%.17g", in.values[i]);
    for (int c = 0; c < n; ++c) {
      hash = (hash ^ static_cast<unsigned char>(text[c])) * 1099511628211ull;
    }
  }
  return acc + static_cast<double>(hash >> 11);
}

double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

}  // namespace

double time_reference() {
  static const Inputs inputs;
  static volatile double sink = 0.0;
  const double start = thread_cpu_s();
  sink = sink + reference_work(inputs);
  return thread_cpu_s() - start;
}

}  // namespace perfbench
