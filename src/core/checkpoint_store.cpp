#include "core/checkpoint_store.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <system_error>

#include "util/fsatomic.hpp"
#include "util/hash.hpp"
#include "util/spec.hpp"

namespace netadv::core {

namespace {

namespace fs = std::filesystem;

[[noreturn]] void store_fail(const std::string& root, const std::string& what) {
  throw std::runtime_error{"checkpoint store " + root + ": " + what};
}

std::string version_stem(std::uint64_t version) {
  // append, not "v" + ...: GCC 12 misreports the latter under -Wrestrict.
  return std::string{"v"}.append(std::to_string(version));
}

/// "v12.ckpt" -> 12; nullopt for anything else (meta sidecars, temp files).
std::optional<std::uint64_t> parse_version_file(const std::string& filename) {
  if (filename.size() < 7 || filename.front() != 'v' ||
      filename.substr(filename.size() - 5) != ".ckpt") {
    return std::nullopt;
  }
  return util::parse_unsigned(
      std::string_view{filename}.substr(1, filename.size() - 6));
}

std::string read_bytes(const std::string& path, const std::string& root) {
  std::ifstream in{path, std::ios::binary};
  if (!in) store_fail(root, "cannot read " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (!in && !in.eof()) store_fail(root, "read failed for " + path);
  return buffer.str();
}

/// Sidecar format, line-oriented like the checkpoints themselves. The note
/// is the last line so it may contain spaces (never newlines — put() strips
/// them).
std::string render_meta(const StoredCheckpoint& record) {
  std::ostringstream out;
  out << "netadv-checkpoint-meta v1\n"
      << "name " << record.name << '\n'
      << "version " << record.version << '\n'
      << "kind " << record.kind << '\n'
      << "hash " << record.provenance << '\n'
      << "note " << record.note << '\n';
  return out.str();
}

/// Best-effort sidecar parse: a missing or truncated sidecar degrades to
/// empty kind/note (the .ckpt file is the source of truth; the hash is
/// recomputable from its bytes).
void apply_meta(const std::string& meta_path, StoredCheckpoint* record) {
  const std::optional<std::string> content =
      util::read_file_if_exists(meta_path);
  if (!content.has_value()) return;
  std::istringstream in{*content};
  std::string line;
  while (std::getline(in, line)) {
    const std::size_t space = line.find(' ');
    if (space == std::string::npos) continue;
    const std::string key = line.substr(0, space);
    const std::string value = line.substr(space + 1);
    if (key == "kind") {
      record->kind = value;
    } else if (key == "hash") {
      record->provenance = value;
    } else if (key == "note") {
      record->note = value;
    }
  }
}

}  // namespace

std::pair<std::string, std::optional<std::uint64_t>> parse_checkpoint_ref(
    const std::string& ref) {
  const std::size_t at = ref.rfind('@');
  if (at == std::string::npos) return {ref, std::nullopt};
  const std::string_view suffix = std::string_view{ref}.substr(at + 1);
  const std::optional<std::uint64_t> version =
      !suffix.empty() && suffix.front() == 'v'
          ? util::parse_unsigned(suffix.substr(1))
          : std::nullopt;
  if (!version) return {ref, std::nullopt};
  return {ref.substr(0, at), *version};
}

CheckpointStore::CheckpointStore(std::string root) : root_(std::move(root)) {
  if (root_.empty()) {
    throw std::runtime_error{"checkpoint store: empty root directory"};
  }
}

StoredCheckpoint CheckpointStore::put(const std::string& name,
                                      std::uint64_t version,
                                      const std::string& kind,
                                      const std::string& source,
                                      const std::string& note) {
  if (name.empty() || name.find('@') != std::string::npos ||
      name.find('/') != std::string::npos) {
    store_fail(root_, "invalid population name '" + name +
                          "' (non-empty, no '@' or '/')");
  }
  if (kind != "protocol" && kind != "adversary") {
    store_fail(root_, "invalid kind '" + kind + "' (protocol | adversary)");
  }
  const std::string bytes = read_bytes(source, root_);

  StoredCheckpoint record;
  record.name = name;
  record.version = version;
  record.kind = kind;
  record.path = root_ + "/" + name + "/" + version_stem(version) + ".ckpt";
  record.provenance = util::hash_hex(util::fnv1a64(bytes));
  record.note = note;
  std::replace(record.note.begin(), record.note.end(), '\n', ' ');

  std::error_code ec;
  fs::create_directories(fs::path{root_} / name, ec);
  if (ec) store_fail(root_, "cannot create " + root_ + "/" + name);

  if (fs::exists(record.path)) {
    // A version is immutable: identical bytes are an idempotent re-put (the
    // spool's double-execution case), anything else is a provenance clash.
    const std::string existing = read_bytes(record.path, root_);
    if (existing != bytes) {
      store_fail(root_, name + "@" + version_stem(version) +
                            " already exists with different content (stored " +
                            util::hash_hex(util::fnv1a64(existing)) +
                            ", new " + record.provenance + ")");
    }
    StoredCheckpoint stored = record;
    apply_meta(record.path.substr(0, record.path.size() - 5) + ".meta",
               &stored);
    return stored;
  }

  // Checkpoint first, sidecar second: a reader that sees the .ckpt before
  // the .meta gets degraded metadata, never a missing checkpoint.
  util::replace_file(record.path, bytes);
  util::replace_file(record.path.substr(0, record.path.size() - 5) + ".meta",
                     render_meta(record));
  return record;
}

std::vector<StoredCheckpoint> CheckpointStore::versions(
    const std::string& name) const {
  std::vector<StoredCheckpoint> found;
  const fs::path dir = fs::path{root_} / name;
  std::error_code ec;
  for (fs::directory_iterator it{dir, ec}, end; !ec && it != end;
       it.increment(ec)) {
    const std::optional<std::uint64_t> version =
        parse_version_file(it->path().filename().string());
    if (!version.has_value()) continue;
    StoredCheckpoint record;
    record.name = name;
    record.version = *version;
    record.path = it->path().string();
    apply_meta((dir / (version_stem(*version) + ".meta")).string(), &record);
    if (record.provenance.empty()) {
      record.provenance = util::hash_hex(util::fnv1a64_file(record.path));
    }
    found.push_back(std::move(record));
  }
  std::sort(found.begin(), found.end(),
            [](const StoredCheckpoint& a, const StoredCheckpoint& b) {
              return a.version < b.version;
            });
  return found;
}

std::vector<std::string> CheckpointStore::names() const {
  std::vector<std::string> found;
  std::error_code ec;
  for (fs::directory_iterator it{root_, ec}, end; !ec && it != end;
       it.increment(ec)) {
    if (!it->is_directory()) continue;
    const std::string name = it->path().filename().string();
    if (!versions(name).empty()) found.push_back(name);
  }
  std::sort(found.begin(), found.end());
  return found;
}

std::optional<StoredCheckpoint> CheckpointStore::try_resolve(
    const std::string& ref) const {
  const auto [name, version] = parse_checkpoint_ref(ref);
  std::vector<StoredCheckpoint> all = versions(name);
  if (all.empty()) return std::nullopt;
  if (!version.has_value()) return std::move(all.back());
  for (StoredCheckpoint& record : all) {
    if (record.version == *version) return std::move(record);
  }
  return std::nullopt;
}

StoredCheckpoint CheckpointStore::resolve(const std::string& ref) const {
  std::optional<StoredCheckpoint> found = try_resolve(ref);
  if (found.has_value()) return std::move(*found);
  const auto [name, version] = parse_checkpoint_ref(ref);
  const std::vector<StoredCheckpoint> all = versions(name);
  if (all.empty()) {
    std::string known;
    for (const std::string& n : names()) {
      if (!known.empty()) known += " | ";
      known += n;
    }
    store_fail(root_, "unknown checkpoint '" + name + "'" +
                          (known.empty() ? " (store is empty)"
                                         : " (" + known + ")"));
  }
  std::string known;
  for (const StoredCheckpoint& record : all) {
    if (!known.empty()) known += " | ";
    known += version_stem(record.version);
  }
  store_fail(root_, "checkpoint '" + name + "' has no " +
                        version_stem(version.value_or(0)) + " (" + known +
                        ")");
}

}  // namespace netadv::core
