// A tiny declarative-config reader: INI-style sections of key=value pairs.
//
// This is the on-disk grammar of netadv::exp campaign files (and anything
// else that wants a human-editable spec without an external JSON/YAML
// dependency):
//
//   # full-line comments start with '#'
//   [campaign]            # a section header: "[<name>]" or "[<name> <label>]"
//   name = grid-sweep
//   seed = 2026
//
//   [job train-bb]        # sections repeat; order is preserved
//   kind = train-adversary
//   protocol = bb
//
// Keys and values are trimmed of surrounding whitespace; duplicate keys
// within a section keep their declaration order (last one wins on lookup).
// Parse errors report the file/line they came from.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace netadv::util {

struct SpecSection {
  std::string name;    ///< first word inside the brackets
  std::string label;   ///< rest of the header line (may be empty)
  std::size_t line = 0;  ///< 1-based line of the header, for error messages
  std::vector<std::pair<std::string, std::string>> entries;

  /// Last value bound to `key`, or nullptr if absent.
  const std::string* find(const std::string& key) const noexcept;
  /// find() or `fallback`.
  std::string value_or(const std::string& key,
                       const std::string& fallback) const;
  bool has(const std::string& key) const noexcept {
    return find(key) != nullptr;
  }
};

struct SpecFile {
  std::string source;  ///< file path (or a caller-chosen tag for text input)
  std::vector<SpecSection> sections;
};

/// Parse spec text. `source` only labels error messages. Throws
/// std::runtime_error on malformed headers or entries outside a section.
SpecFile parse_spec_text(const std::string& text, const std::string& source);

/// Read and parse a spec file; throws std::runtime_error if unreadable.
SpecFile parse_spec_file(const std::string& path);

/// Split a comma-separated list, trimming whitespace and dropping empty
/// items ("a, b,c" -> {"a","b","c"}).
std::vector<std::string> split_list(const std::string& csv);

/// Strict numeric values: the whole string is the number, with no sign,
/// whitespace or trailing junk ("-1", "+2", "20x" are rejected, not wrapped
/// or truncated), and a double must be finite ("nan", "inf" are rejected).
/// nullopt on rejection or overflow; callers name the offending key.
std::optional<std::uint64_t> parse_unsigned(std::string_view text);
std::optional<double> parse_finite(std::string_view text);

}  // namespace netadv::util
