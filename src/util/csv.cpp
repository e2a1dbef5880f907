#include "util/csv.hpp"

#include <cstdio>
#include <stdexcept>

namespace netadv::util {

namespace {

/// Split on ',' keeping empty cells, including a trailing one ("a,b," is
/// three cells). std::getline(ss, cell, ',') silently drops that last empty
/// cell, which is how ragged benchmark CSVs went unnoticed.
std::vector<std::string> split_line(const std::string& line) {
  std::vector<std::string> cells;
  std::size_t start = 0;
  while (true) {
    const std::size_t comma = line.find(',', start);
    if (comma == std::string::npos) {
      cells.push_back(line.substr(start));
      return cells;
    }
    cells.push_back(line.substr(start, comma - start));
    start = comma + 1;
  }
}

}  // namespace

CsvWriter::CsvWriter(const std::string& path) : path_(path), out_(path) {
  if (!out_) throw std::runtime_error{"CsvWriter: cannot open " + path};
}

void CsvWriter::write_row(const std::vector<std::string>& cells) {
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (i > 0) out_ << ',';
    out_ << cells[i];
  }
  out_ << '\n';
}

void CsvWriter::write_row(const std::vector<double>& cells) {
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (i > 0) out_ << ',';
    out_ << format_number(cells[i]);
  }
  out_ << '\n';
}

void CsvWriter::close() {
  out_.close();
  if (!out_) throw std::runtime_error{"CsvWriter: cannot write " + path_};
}

CsvTable read_csv(const std::string& path) {
  std::ifstream in{path};
  if (!in) throw std::runtime_error{"read_csv: cannot open " + path};
  CsvTable table;
  std::string line;
  bool first = true;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    if (first) {
      table.header = split_line(line);
      first = false;
      continue;
    }
    const std::vector<std::string> cells = split_line(line);
    if (cells.size() != table.header.size()) {
      throw std::runtime_error{
          "read_csv: row at line " + std::to_string(line_no) + " has " +
          std::to_string(cells.size()) + " cells, header has " +
          std::to_string(table.header.size()) + " in " + path};
    }
    std::vector<double> row;
    row.reserve(cells.size());
    for (const std::string& cell : cells) {
      std::size_t pos = 0;
      double value = 0.0;
      try {
        value = std::stod(cell, &pos);
      } catch (const std::exception&) {
        throw std::runtime_error{"read_csv: non-numeric cell '" + cell + "' in " + path};
      }
      if (pos != cell.size()) {
        throw std::runtime_error{"read_csv: trailing junk in cell '" + cell + "' in " + path};
      }
      row.push_back(value);
    }
    table.rows.push_back(std::move(row));
  }
  return table;
}

std::string format_number(double x) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6g", x);
  return buf;
}

}  // namespace netadv::util
