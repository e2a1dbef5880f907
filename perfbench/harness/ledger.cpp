#include "ledger.hpp"

#include <memory>
#include <mutex>

namespace perfbench {

namespace {

std::mutex& registry_mutex() {
  static std::mutex mutex;
  return mutex;
}

std::vector<std::unique_ptr<Lane>>& registry() {
  static std::vector<std::unique_ptr<Lane>> lanes;
  return lanes;
}

}  // namespace

const char* proto_name(Proto proto) noexcept {
  switch (proto) {
    case kMpc: return "mpc";
    case kMpcDp: return "mpc_dp";
    case kPensieve: return "pensieve";
    case kBb: return "bb";
    case kProtoCount: break;
  }
  return "?";
}

void Lane::add(const Lane& other) {
  env_step_s += other.env_step_s;
  env_decide_s += other.env_decide_s;
  update_s += other.update_s;
  batch_infer_s += other.batch_infer_s;
  for (std::size_t p = 0; p < kProtoCount; ++p) {
    decide_s[p] += other.decide_s[p];
    decisions[p] += other.decisions[p];
  }
  env_steps += other.env_steps;
  updates += other.updates;
  batches += other.batches;
  batch_decisions += other.batch_decisions;
  latency_s.insert(latency_s.end(), other.latency_s.begin(),
                   other.latency_s.end());
  for (const auto& [key, seconds] : other.job_s) job_s[key] += seconds;
}

Lane& lane() {
  thread_local Lane* mine = [] {
    std::lock_guard<std::mutex> lock{registry_mutex()};
    registry().push_back(std::make_unique<Lane>());
    return registry().back().get();
  }();
  return *mine;
}

void reset_lanes() {
  std::lock_guard<std::mutex> lock{registry_mutex()};
  for (auto& l : registry()) *l = Lane{};
}

Lane take_lanes() {
  std::lock_guard<std::mutex> lock{registry_mutex()};
  Lane total;
  for (auto& l : registry()) {
    total.add(*l);
    *l = Lane{};
  }
  return total;
}

}  // namespace perfbench
