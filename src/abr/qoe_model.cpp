#include "abr/qoe_model.hpp"

#include <cmath>
#include <stdexcept>

#include "util/csv.hpp"

namespace netadv::abr {

void QoeModel::begin_video(const VideoManifest& manifest) {
  manifest_ = &manifest;
}

const VideoManifest& QoeModel::manifest() const {
  if (manifest_ == nullptr) {
    throw std::logic_error{"qoe model '" + name() +
                           "': begin_video not called"};
  }
  return *manifest_;
}

void QoeModel::check_scored(std::size_t chunk_index,
                            std::size_t quality) const {
  const VideoManifest& m = manifest();
  if (chunk_index >= m.num_chunks()) {
    throw std::out_of_range{
        "qoe model '" + name() + "': chunk " + std::to_string(chunk_index) +
        " out of range [0, " + std::to_string(m.num_chunks()) + ")"};
  }
  if (quality >= m.num_qualities()) {
    throw std::out_of_range{
        "qoe model '" + name() + "': quality " + std::to_string(quality) +
        " out of range [0, " + std::to_string(m.num_qualities()) + ")"};
  }
}

double QoeModel::chunk_score(std::size_t chunk_index, std::size_t quality,
                             double rebuffer_s, double prev_score) const {
  const double score = quality_score(chunk_index, quality);
  return score - rebuffer_penalty() * rebuffer_s -
         smoothness_penalty() * std::abs(score - prev_score);
}

double QoeModel::total_score(std::span<const std::size_t> qualities,
                             std::span<const double> rebuffer_s) const {
  if (qualities.empty() || qualities.size() != rebuffer_s.size()) {
    throw std::invalid_argument{
        "total_score: quality/rebuffer spans must be non-empty and equal "
        "size (got " +
        std::to_string(qualities.size()) + " qualities, " +
        std::to_string(rebuffer_s.size()) + " rebuffer entries)"};
  }
  double total = 0.0;
  double prev_score = quality_score(0, qualities[0]);
  for (std::size_t i = 0; i < qualities.size(); ++i) {
    total += chunk_score(i, qualities[i], rebuffer_s[i], prev_score);
    prev_score = quality_score(i, qualities[i]);
  }
  return total;
}

double LinQoe::quality_score(std::size_t chunk_index,
                             std::size_t quality) const {
  check_scored(chunk_index, quality);
  return manifest().bitrate_mbps(quality);
}

double LogQoe::quality_score(std::size_t chunk_index,
                             std::size_t quality) const {
  check_scored(chunk_index, quality);
  return std::log(manifest().bitrate_mbps(quality) /
                  manifest().bitrate_mbps(0));
}

void save_ssim_table(const SsimTable& table, const std::string& path) {
  if (table.empty() || table.front().empty()) {
    throw std::runtime_error{"save_ssim_table: empty table"};
  }
  util::CsvWriter writer{path};
  std::vector<std::string> header{"chunk"};
  for (std::size_t q = 0; q < table.front().size(); ++q) {
    header.push_back("q");
    header.back() += std::to_string(q);
  }
  writer.write_row(header);
  for (std::size_t i = 0; i < table.size(); ++i) {
    if (table[i].size() != table.front().size()) {
      throw std::runtime_error{"save_ssim_table: ragged table at chunk " +
                               std::to_string(i)};
    }
    std::vector<double> row{static_cast<double>(i)};
    row.insert(row.end(), table[i].begin(), table[i].end());
    writer.write_row(row);
  }
  writer.close();
}

SsimTable load_ssim_table(const std::string& path) {
  const util::CsvTable csv = util::read_csv(path);
  if (csv.header.empty() || csv.header.front() != "chunk" ||
      csv.header.size() < 2) {
    throw std::runtime_error{"load_ssim_table: " + path +
                             ": expected header chunk,q0,..."};
  }
  if (csv.rows.empty()) {
    throw std::runtime_error{"load_ssim_table: " + path +
                             ": header-only table (no chunk rows)"};
  }
  const std::size_t width = csv.header.size();
  SsimTable table;
  table.reserve(csv.rows.size());
  for (std::size_t i = 0; i < csv.rows.size(); ++i) {
    const std::vector<double>& row = csv.rows[i];
    // read_csv already pins every row to the header width; re-check here so
    // the invariant the quality lookup leans on is enforced where it is
    // used, with the SSIM-specific framing.
    if (row.size() != width) {
      throw std::runtime_error{
          "load_ssim_table: " + path + ": row " + std::to_string(i) + " has " +
          std::to_string(row.size()) + " cells, expected " +
          std::to_string(width) + " (chunk plus " +
          std::to_string(width - 1) + " qualities)"};
    }
    // Exact match, not a truncating cast: 2.9 must not pass for chunk 2,
    // and a negative index must not wrap into range.
    if (row.front() != static_cast<double>(i)) {
      throw std::runtime_error{
          "load_ssim_table: " + path + ": row " + std::to_string(i) +
          " has chunk index " + util::format_number(row.front()) +
          ", expected " + std::to_string(i) +
          " (indices must be exact and consecutive from 0)"};
    }
    table.emplace_back(row.begin() + 1, row.end());
  }
  return table;
}

SsimTable synthetic_ssim_table(const VideoManifest& manifest) {
  SsimTable table(manifest.num_chunks(),
                  std::vector<double>(manifest.num_qualities(), 0.0));
  for (std::size_t i = 0; i < manifest.num_chunks(); ++i) {
    for (std::size_t q = 0; q < manifest.num_qualities(); ++q) {
      table[i][q] =
          5.0 * std::log2(1.0 + manifest.chunk_size_bits(i, q) / 1e6);
    }
  }
  return table;
}

SsimTableQoe::SsimTableQoe(SsimTable table, Params params)
    : params_(params), table_(std::move(table)), explicit_table_(true) {
  if (table_.empty() || table_.front().empty()) {
    throw std::invalid_argument{"SsimTableQoe: empty table"};
  }
}

void SsimTableQoe::begin_video(const VideoManifest& manifest) {
  QoeModel::begin_video(manifest);
  if (!explicit_table_) {
    table_ = synthetic_ssim_table(manifest);
    return;
  }
  if (table_.size() != manifest.num_chunks() ||
      table_.front().size() != manifest.num_qualities()) {
    throw std::invalid_argument{
        "SsimTableQoe: table is " + std::to_string(table_.size()) + " x " +
        std::to_string(table_.front().size()) + " but the video has " +
        std::to_string(manifest.num_chunks()) + " chunks x " +
        std::to_string(manifest.num_qualities()) + " qualities"};
  }
}

double SsimTableQoe::quality_score(std::size_t chunk_index,
                                   std::size_t quality) const {
  check_scored(chunk_index, quality);
  return table_[chunk_index][quality];
}

}  // namespace netadv::abr
