#include "util/spec.hpp"

#include <charconv>
#include <cmath>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace netadv::util {

namespace {

std::string trim(const std::string& s) {
  const auto begin = s.find_first_not_of(" \t\r");
  if (begin == std::string::npos) return {};
  const auto end = s.find_last_not_of(" \t\r");
  return s.substr(begin, end - begin + 1);
}

[[noreturn]] void fail(const std::string& source, std::size_t line,
                       const std::string& what) {
  throw std::runtime_error{source + ":" + std::to_string(line) + ": " + what};
}

}  // namespace

const std::string* SpecSection::find(const std::string& key) const noexcept {
  const std::string* found = nullptr;
  for (const auto& [k, v] : entries) {
    if (k == key) found = &v;
  }
  return found;
}

std::string SpecSection::value_or(const std::string& key,
                                  const std::string& fallback) const {
  const std::string* v = find(key);
  return v != nullptr ? *v : fallback;
}

SpecFile parse_spec_text(const std::string& text, const std::string& source) {
  SpecFile spec;
  spec.source = source;
  std::istringstream in{text};
  std::string raw;
  std::size_t line_no = 0;
  while (std::getline(in, raw)) {
    ++line_no;
    const std::string line = trim(raw);
    if (line.empty() || line.front() == '#') continue;
    if (line.front() == '[') {
      if (line.back() != ']') fail(source, line_no, "unterminated section header");
      const std::string header = trim(line.substr(1, line.size() - 2));
      if (header.empty()) fail(source, line_no, "empty section header");
      SpecSection section;
      section.line = line_no;
      const auto space = header.find_first_of(" \t");
      if (space == std::string::npos) {
        section.name = header;
      } else {
        section.name = header.substr(0, space);
        section.label = trim(header.substr(space + 1));
      }
      spec.sections.push_back(std::move(section));
      continue;
    }
    const auto eq = line.find('=');
    if (eq == std::string::npos) {
      fail(source, line_no, "expected 'key = value' or '[section]': " + line);
    }
    if (spec.sections.empty()) {
      fail(source, line_no, "'key = value' before any [section] header");
    }
    const std::string key = trim(line.substr(0, eq));
    if (key.empty()) fail(source, line_no, "empty key");
    spec.sections.back().entries.emplace_back(key, trim(line.substr(eq + 1)));
  }
  return spec;
}

SpecFile parse_spec_file(const std::string& path) {
  std::ifstream in{path};
  if (!in) throw std::runtime_error{"cannot open spec file: " + path};
  std::ostringstream text;
  text << in.rdbuf();
  return parse_spec_text(text.str(), path);
}

std::vector<std::string> split_list(const std::string& csv) {
  std::vector<std::string> items;
  std::string current;
  std::istringstream in{csv};
  while (std::getline(in, current, ',')) {
    const std::string item = trim(current);
    if (!item.empty()) items.push_back(item);
  }
  return items;
}

std::optional<std::uint64_t> parse_unsigned(std::string_view text) {
  // from_chars takes no whitespace or '+', and no '-' for unsigned types.
  std::uint64_t value = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc{} || ptr != end) return std::nullopt;
  return value;
}

std::optional<double> parse_finite(std::string_view text) {
  if (!text.empty() && text.front() == '-') return std::nullopt;
  double value = 0.0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc{} || ptr != end || !std::isfinite(value)) {
    return std::nullopt;
  }
  return value;
}

}  // namespace netadv::util
