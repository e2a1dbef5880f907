#include "util/config.hpp"

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <mutex>
#include <optional>
#include <stdexcept>

#include "util/log.hpp"
#include "util/spec.hpp"

namespace netadv::util {

double bench_scale() noexcept {
  static const double scale = [] {
    const char* env = std::getenv("NETADV_SCALE");
    if (env == nullptr) return 1.0;
    const std::optional<double> parsed = parse_finite(env);
    if (!parsed || *parsed <= 0.0) {
      log_warn("NETADV_SCALE='%s' is not a positive number; using 1", env);
      return 1.0;
    }
    const double value = std::clamp(*parsed, 0.001, 100.0);
    if (value != *parsed) {
      log_warn("NETADV_SCALE=%s is outside [0.001, 100]; using %g", env, value);
    }
    return value;
  }();
  return scale;
}

std::string bench_output_dir() {
  std::string dir = "bench_out";
  if (const char* env = std::getenv("NETADV_OUT_DIR")) dir = env;
  // Serialized: concurrent first calls from pool threads (campaign jobs all
  // resolve their artifact paths through here) must not race the check/create
  // inside create_directories across filesystems that aren't atomic about it.
  static std::mutex mutex;
  const std::lock_guard<std::mutex> lock{mutex};
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    log_error("bench_output_dir: cannot create '%s': %s", dir.c_str(),
              ec.message().c_str());
    throw std::runtime_error{"bench_output_dir: cannot create '" + dir +
                             "': " + ec.message()};
  }
  return dir;
}

std::size_t scaled_steps(std::size_t nominal, std::size_t floor) noexcept {
  const auto scaled =
      static_cast<std::size_t>(static_cast<double>(nominal) * bench_scale());
  return std::max(scaled, floor);
}

}  // namespace netadv::util
