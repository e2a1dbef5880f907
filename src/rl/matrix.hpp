// The Vec alias, and the dot product and norm the optimizer uses. dot()
// forwards to the dispatched kernel layer in kernels.hpp, which implements
// the canonical 4-lane accumulation order once per backend — bit-identical
// across backends, thread counts, and ISAs (DESIGN.md §7). The MLP calls the
// kernels directly.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace netadv::rl {

using Vec = std::vector<double>;

/// Dot product; requires equal sizes.
double dot(std::span<const double> a, std::span<const double> b);

/// Euclidean norm.
double l2_norm(std::span<const double> a);

}  // namespace netadv::rl
