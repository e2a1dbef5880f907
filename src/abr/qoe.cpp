#include "abr/qoe.hpp"

#include <stdexcept>
#include <string>

namespace netadv::abr {

double total_qoe(std::span<const double> bitrates_mbps,
                 std::span<const double> rebuffer_s, const QoeParams& params) {
  if (bitrates_mbps.empty() || bitrates_mbps.size() != rebuffer_s.size()) {
    throw std::invalid_argument{
        "total_qoe: bitrate/rebuffer spans must be non-empty and equal size "
        "(got " +
        std::to_string(bitrates_mbps.size()) + " bitrates, " +
        std::to_string(rebuffer_s.size()) + " rebuffer entries)"};
  }
  double qoe = 0.0;
  for (std::size_t i = 0; i < bitrates_mbps.size(); ++i) {
    const double prev = i == 0 ? bitrates_mbps[0] : bitrates_mbps[i - 1];
    qoe += chunk_qoe(bitrates_mbps[i], rebuffer_s[i], prev, params);
  }
  return qoe;
}

}  // namespace netadv::abr
