// Minimal CSV reading/writing for traces and benchmark output. Values are
// numeric or plain strings without embedded commas/newlines, which is all
// this project produces; a full RFC-4180 parser is deliberately out of scope.
#pragma once

#include <fstream>
#include <string>
#include <vector>

namespace netadv::util {

/// Row-at-a-time CSV writer. Creates/truncates the file on construction;
/// throws std::runtime_error if the file cannot be opened. Call close() to
/// learn whether every row reached the file: the destructor flushes too, but
/// cannot report a failed write.
class CsvWriter {
 public:
  explicit CsvWriter(const std::string& path);

  /// Write a header or data row from string cells.
  void write_row(const std::vector<std::string>& cells);
  /// Write a data row of doubles (formatted with %.6g).
  void write_row(const std::vector<double>& cells);
  /// Flush and close the file; throws std::runtime_error naming the path if
  /// any write failed (a full disk, say).
  void close();

  const std::string& path() const noexcept { return path_; }

 private:
  std::string path_;
  std::ofstream out_;
};

struct CsvTable {
  std::vector<std::string> header;
  std::vector<std::vector<double>> rows;
};

/// Read a numeric CSV with a single header line. Empty cells are preserved
/// (and rejected as non-numeric) rather than silently dropped, and every
/// data row must have exactly as many cells as the header. Throws
/// std::runtime_error on missing file, non-numeric data cells, or
/// ragged rows.
CsvTable read_csv(const std::string& path);

/// Format a double with up to 6 significant digits (trailing-zero trimmed).
std::string format_number(double x);

}  // namespace netadv::util
