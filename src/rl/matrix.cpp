#include "rl/matrix.hpp"

#include <cmath>

#include "rl/kernels.hpp"

namespace netadv::rl {

double dot(std::span<const double> a, std::span<const double> b) {
  return kernels::dot(a, b);
}

double l2_norm(std::span<const double> a) { return std::sqrt(dot(a, a)); }

}  // namespace netadv::rl
