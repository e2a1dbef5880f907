// The Vec alias the RL core passes vectors as. The math on them lives in
// the dispatched kernel layer (kernels.hpp).
#pragma once

#include <vector>

namespace netadv::rl {

using Vec = std::vector<double>;

}  // namespace netadv::rl
