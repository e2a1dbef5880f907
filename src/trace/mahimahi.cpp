#include "trace/mahimahi.hpp"

#include <cmath>
#include <cstdint>
#include <fstream>
#include <stdexcept>
#include <vector>

namespace netadv::trace {

void save_mahimahi_trace(const Trace& trace, const std::string& path,
                         const MahimahiOptions& options) {
  if (trace.empty()) {
    throw std::invalid_argument{"save_mahimahi_trace: empty trace"};
  }
  std::ofstream out{path};
  if (!out) throw std::runtime_error{"save_mahimahi_trace: cannot open " + path};

  const double packet_bits = options.packet_bytes * 8.0;
  double t_ms = 0.0;
  // Fractional-opportunity carry so low rates still emit opportunities at
  // the exact long-run average.
  double carry = 0.0;
  for (const auto& segment : trace.segments()) {
    const double end_ms = t_ms + segment.duration_s * 1000.0;
    // Opportunities per millisecond at this bandwidth.
    const double per_ms = segment.bandwidth_mbps * 1e6 / packet_bits / 1000.0;
    for (double ms = t_ms; ms < end_ms; ms += 1.0) {
      carry += per_ms;
      while (carry >= 1.0) {
        out << static_cast<std::uint64_t>(ms) << '\n';
        carry -= 1.0;
      }
    }
    t_ms = end_ms;
  }
  out.close();
  if (!out) throw std::runtime_error{"save_mahimahi_trace: write failed"};
}

Trace load_mahimahi_trace(const std::string& path,
                          const MahimahiOptions& options) {
  std::ifstream in{path};
  if (!in) throw std::runtime_error{"load_mahimahi_trace: cannot open " + path};

  std::vector<std::uint64_t> stamps;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::size_t pos = 0;
    const std::uint64_t ms = std::stoull(line, &pos);
    if (pos != line.size()) {
      throw std::runtime_error{"load_mahimahi_trace: bad line '" + line + "'"};
    }
    if (!stamps.empty() && ms < stamps.back()) {
      throw std::runtime_error{"load_mahimahi_trace: non-monotone timestamps"};
    }
    stamps.push_back(ms);
  }
  if (stamps.empty()) {
    throw std::runtime_error{"load_mahimahi_trace: no delivery opportunities"};
  }

  const double packet_bits = options.packet_bytes * 8.0;
  const double bin_ms = options.import_bin_s * 1000.0;
  const auto total_ms = static_cast<double>(stamps.back()) + 1.0;
  const auto bins = static_cast<std::size_t>(std::ceil(total_ms / bin_ms));

  std::vector<std::size_t> counts(bins, 0);
  for (std::uint64_t ms : stamps) {
    ++counts[static_cast<std::size_t>(static_cast<double>(ms) / bin_ms)];
  }

  Trace trace;
  for (std::size_t b = 0; b < bins; ++b) {
    const double bits = static_cast<double>(counts[b]) * packet_bits;
    const double bw_mbps =
        std::max(bits / options.import_bin_s / 1e6, 1e-3);  // floor: no 0-bw
    trace.append({options.import_bin_s, bw_mbps, options.import_latency_ms,
                  options.import_loss});
  }
  return trace;
}

}  // namespace netadv::trace
