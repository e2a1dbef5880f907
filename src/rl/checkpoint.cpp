#include "rl/checkpoint.hpp"

#include <algorithm>
#include <charconv>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace netadv::rl {

namespace {

void write_vector(std::ostream& out, const std::string& key,
                  std::span<const double> values) {
  out << key << ' ' << values.size();
  out.precision(17);
  for (double v : values) out << ' ' << v;
  out << '\n';
}

/// Read `<key> <n> <n values>`. The declared n is untrusted: it must equal
/// `expected` (the size the agent's topology implies) before anything is
/// allocated, so a corrupt count fails with a named error instead of a
/// bad_alloc or an OOM kill.
std::vector<double> read_vector(std::istream& in, const std::string& expected_key,
                                std::size_t expected, const std::string& path) {
  std::string key;
  std::size_t n = 0;
  if (!(in >> key >> n) || key != expected_key) {
    throw std::runtime_error{"load_checkpoint: expected key '" + expected_key +
                             "' in " + path};
  }
  if (n != expected) {
    throw std::runtime_error{"load_checkpoint: '" + key + "' declares " +
                             std::to_string(n) + " values, the agent expects " +
                             std::to_string(expected) + " in " + path};
  }
  std::vector<double> values(n);
  for (auto& v : values) {
    if (!(in >> v)) {
      throw std::runtime_error{"load_checkpoint: truncated vector '" + key +
                               "' in " + path};
    }
  }
  return values;
}

/// Read `obs_count <n>`. n must be a plain run of decimal digits: `>>` into
/// a size_t would wrap a sign (-1 reads as 2^64 - 1) and stop silently at
/// trailing junk (12abc reads as 12).
std::size_t read_obs_count(std::istream& in, const std::string& path) {
  std::string key;
  std::string token;
  if (!(in >> key >> token) || key != "obs_count") {
    throw std::runtime_error{"load_checkpoint: missing obs_count in " + path};
  }
  std::size_t count = 0;
  const char* const end = token.data() + token.size();
  const auto [last, error] = std::from_chars(token.data(), end, count);
  if (error != std::errc{} || last != end) {
    throw std::runtime_error{"load_checkpoint: bad obs_count '" + token +
                             "' in " + path};
  }
  return count;
}

/// Parse the v3 `meta <n>` block at the stream's position: n whole lines of
/// `<key> <value...>`, the value being the rest of the line.
CheckpointMeta read_meta_block(std::istream& in, const std::string& path) {
  std::string key;
  std::size_t n = 0;
  if (!(in >> key >> n) || key != "meta") {
    throw std::runtime_error{"load_checkpoint: v3 missing meta block in " +
                             path};
  }
  std::string line;
  std::getline(in, line);  // consume the rest of the `meta <n>` line
  // n is untrusted, so no reserve(n): a corrupt count runs out of lines
  // (and throws) long before it could exhaust memory.
  CheckpointMeta meta;
  for (std::size_t i = 0; i < n; ++i) {
    if (!std::getline(in, line)) {
      throw std::runtime_error{"load_checkpoint: truncated meta block in " +
                               path};
    }
    const std::size_t space = line.find(' ');
    if (space == std::string::npos || space == 0) {
      throw std::runtime_error{"load_checkpoint: malformed meta line '" +
                               line + "' in " + path};
    }
    meta.emplace_back(line.substr(0, space), line.substr(space + 1));
  }
  return meta;
}

}  // namespace

void save_checkpoint(const PpoAgent& agent, const std::string& path) {
  save_checkpoint(agent, path, CheckpointMeta{});
}

void save_checkpoint(const PpoAgent& agent, const std::string& path,
                     const CheckpointMeta& meta) {
  std::ofstream out{path};
  if (!out) throw std::runtime_error{"save_checkpoint: cannot open " + path};

  // Metadata-free saves stay v2 so their bytes never move (checkpoint.hpp).
  if (meta.empty()) {
    out << "netadv-ppo-checkpoint v2\n";
  } else {
    out << "netadv-ppo-checkpoint v3\n";
    out << "meta " << meta.size() << '\n';
    for (const auto& [key, value] : meta) {
      if (key.empty() ||
          key.find_first_of(" \t\n") != std::string::npos ||
          value.find('\n') != std::string::npos) {
        throw std::runtime_error{
            "save_checkpoint: meta key '" + key +
            "' must be one whitespace-free token with a newline-free value"};
      }
      out << key << ' ' << value << '\n';
    }
  }
  out << "obs_size " << agent.observation_size() << '\n';
  const auto& spec = agent.action_spec();
  if (spec.type == ActionType::kDiscrete) {
    out << "action discrete " << spec.num_actions << '\n';
  } else {
    out << "action continuous " << spec.low.size() << '\n';
  }
  write_vector(out, "actor", agent.actor().params());
  write_vector(out, "critic", agent.critic().params());
  write_vector(out, "log_std", agent.log_std());
  write_vector(out, "obs_mean", agent.obs_normalizer().mean());
  // Raw Welford m2, not variance: exact round trip (see checkpoint.hpp).
  write_vector(out, "obs_m2", agent.obs_normalizer().m2());
  out << "obs_count " << agent.obs_normalizer().count() << '\n';
  out.close();
  if (!out) throw std::runtime_error{"save_checkpoint: write failed for " + path};
}

void load_checkpoint(PpoAgent& agent, const std::string& path) {
  std::ifstream in{path};
  if (!in) throw std::runtime_error{"load_checkpoint: cannot open " + path};

  std::string magic;
  std::string version;
  if (!(in >> magic >> version) || magic != "netadv-ppo-checkpoint" ||
      (version != "v1" && version != "v2" && version != "v3")) {
    throw std::runtime_error{"load_checkpoint: bad header in " + path};
  }
  if (version == "v3") {
    // Provenance only — skip it (read_checkpoint_meta retrieves it).
    read_meta_block(in, path);
  }

  std::string key;
  std::size_t obs_size = 0;
  if (!(in >> key >> obs_size) || key != "obs_size" ||
      obs_size != agent.observation_size()) {
    throw std::runtime_error{"load_checkpoint: observation size mismatch in " +
                             path};
  }

  std::string action_kind;
  std::size_t action_n = 0;
  if (!(in >> key >> action_kind >> action_n) || key != "action") {
    throw std::runtime_error{"load_checkpoint: missing action spec in " + path};
  }
  const auto& spec = agent.action_spec();
  const bool discrete = spec.type == ActionType::kDiscrete;
  if ((discrete && (action_kind != "discrete" || action_n != spec.num_actions)) ||
      (!discrete && (action_kind != "continuous" || action_n != spec.low.size()))) {
    throw std::runtime_error{"load_checkpoint: action space mismatch in " +
                             path};
  }

  // Parse and check every field before touching the agent, so a torn or
  // corrupt file leaves it exactly as it was.
  const auto actor =
      read_vector(in, "actor", agent.actor().param_count(), path);
  const auto critic =
      read_vector(in, "critic", agent.critic().param_count(), path);
  auto log_std = read_vector(in, "log_std", agent.log_std().size(), path);
  auto obs_mean = read_vector(in, "obs_mean", obs_size, path);
  auto obs_second = read_vector(in, version == "v1" ? "obs_var" : "obs_m2",
                                obs_size, path);
  const std::size_t obs_count = read_obs_count(in, path);

  std::copy(actor.begin(), actor.end(), agent.actor().params().begin());
  std::copy(critic.begin(), critic.end(), agent.critic().params().begin());
  agent.log_std() = std::move(log_std);
  if (version == "v1") {
    agent.obs_normalizer().restore(std::move(obs_mean), std::move(obs_second),
                                   obs_count);
  } else {
    agent.obs_normalizer().restore_moments(std::move(obs_mean),
                                           std::move(obs_second), obs_count);
  }
}

CheckpointMeta read_checkpoint_meta(const std::string& path) {
  std::ifstream in{path};
  if (!in) {
    throw std::runtime_error{"read_checkpoint_meta: cannot open " + path};
  }
  std::string magic;
  std::string version;
  if (!(in >> magic >> version) || magic != "netadv-ppo-checkpoint" ||
      (version != "v1" && version != "v2" && version != "v3")) {
    throw std::runtime_error{"read_checkpoint_meta: bad header in " + path};
  }
  if (version != "v3") return {};
  return read_meta_block(in, path);
}

}  // namespace netadv::rl
