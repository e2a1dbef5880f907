#include "trace/trace.hpp"

#include <cmath>

#include "util/csv.hpp"

namespace netadv::trace {

double Trace::total_duration_s() const noexcept {
  double total = 0.0;
  for (const auto& s : segments_) total += s.duration_s;
  return total;
}

const Segment& Trace::at_time(double t_s) const {
  if (segments_.empty()) throw std::logic_error{"Trace::at_time on empty trace"};
  double elapsed = 0.0;
  for (const auto& s : segments_) {
    elapsed += s.duration_s;
    if (t_s < elapsed) return s;
  }
  return segments_.back();
}

double Trace::mean_bandwidth_mbps() const noexcept {
  double weighted = 0.0;
  double total = 0.0;
  for (const auto& s : segments_) {
    weighted += s.bandwidth_mbps * s.duration_s;
    total += s.duration_s;
  }
  return total > 0.0 ? weighted / total : 0.0;
}

double Trace::bandwidth_total_variation() const noexcept {
  double tv = 0.0;
  for (std::size_t i = 1; i < segments_.size(); ++i) {
    tv += std::abs(segments_[i].bandwidth_mbps - segments_[i - 1].bandwidth_mbps);
  }
  return tv;
}

void save_trace(const Trace& trace, const std::string& path) {
  util::CsvWriter writer{path};
  writer.write_row(std::vector<std::string>{"duration_s", "bandwidth_mbps",
                                            "latency_ms", "loss_rate"});
  for (const auto& s : trace.segments()) {
    writer.write_row(std::vector<double>{s.duration_s, s.bandwidth_mbps,
                                         s.latency_ms, s.loss_rate});
  }
  writer.close();
}

Trace load_trace(const std::string& path) {
  const util::CsvTable table = util::read_csv(path);
  if (table.header.size() != 4) {
    throw std::runtime_error{"load_trace: expected 4 columns in " + path};
  }
  std::vector<Segment> segments;
  segments.reserve(table.rows.size());
  for (const auto& row : table.rows) {
    if (row.size() != 4) {
      throw std::runtime_error{"load_trace: ragged row in " + path};
    }
    segments.push_back({row[0], row[1], row[2], row[3]});
  }
  return Trace{std::move(segments)};
}

void save_trace_set(const std::vector<Trace>& traces, const std::string& path) {
  util::CsvWriter writer{path};
  writer.write_row(std::vector<std::string>{
      "trace", "duration_s", "bandwidth_mbps", "latency_ms", "loss_rate"});
  for (std::size_t i = 0; i < traces.size(); ++i) {
    for (const auto& s : traces[i].segments()) {
      writer.write_row(std::vector<double>{static_cast<double>(i), s.duration_s,
                                           s.bandwidth_mbps, s.latency_ms,
                                           s.loss_rate});
    }
  }
  writer.close();
}

std::vector<Trace> load_trace_set(const std::string& path) {
  const util::CsvTable table = util::read_csv(path);
  if (table.header.size() != 5) {
    throw std::runtime_error{"load_trace_set: expected 5 columns in " + path};
  }
  std::vector<Trace> traces;
  for (const auto& row : table.rows) {
    const auto index = static_cast<std::size_t>(row[0]);
    if (index >= traces.size()) {
      if (index != traces.size()) {
        throw std::runtime_error{"load_trace_set: non-contiguous trace index in " +
                                 path};
      }
      traces.emplace_back();
    } else if (index + 1 != traces.size()) {
      throw std::runtime_error{"load_trace_set: out-of-order trace index in " +
                               path};
    }
    traces.back().append({row[1], row[2], row[3], row[4]});
  }
  return traces;
}

}  // namespace netadv::trace
