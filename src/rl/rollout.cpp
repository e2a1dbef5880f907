#include "rl/rollout.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

namespace netadv::rl {

RolloutBuffer::RolloutBuffer(std::size_t capacity) : capacity_(capacity) {
  if (capacity == 0) throw std::invalid_argument{"RolloutBuffer capacity must be > 0"};
  data_.reserve(capacity);
}

void RolloutBuffer::add(Transition t) {
  if (full()) throw std::logic_error{"RolloutBuffer::add on full buffer"};
  data_.push_back(std::move(t));
}

void RolloutBuffer::compute_advantages(double last_value, double gamma,
                                       double lambda) {
  if (data_.empty()) throw std::logic_error{"compute_advantages on empty buffer"};
  double gae = 0.0;
  for (std::size_t i = data_.size(); i-- > 0;) {
    Transition& t = data_[i];
    const double next_value =
        (i + 1 < data_.size()) ? data_[i + 1].value : last_value;
    const double next_non_terminal = t.done ? 0.0 : 1.0;
    const double delta =
        t.reward + gamma * next_value * next_non_terminal - t.value;
    gae = delta + gamma * lambda * next_non_terminal * gae;
    t.advantage = gae;
    t.return_ = t.advantage + t.value;
  }

  // Standardize advantages (not the return targets).
  double mean = 0.0;
  for (const auto& t : data_) mean += t.advantage;
  mean /= static_cast<double>(data_.size());
  double var = 0.0;
  for (const auto& t : data_) {
    const double d = t.advantage - mean;
    var += d * d;
  }
  var /= static_cast<double>(data_.size());
  const double std = std::sqrt(var) + 1e-8;
  for (auto& t : data_) t.advantage = (t.advantage - mean) / std;
}

std::vector<std::size_t> RolloutBuffer::shuffled_indices(util::Rng& rng) const {
  std::vector<std::size_t> idx(data_.size());
  std::iota(idx.begin(), idx.end(), std::size_t{0});
  // Fisher-Yates with our deterministic RNG.
  for (std::size_t i = idx.size(); i > 1; --i) {
    std::swap(idx[i - 1], idx[rng.index(i)]);
  }
  return idx;
}

}  // namespace netadv::rl
