// BOLA (Spiteri, Urgaonkar, Sitaraman — INFOCOM 2016): Lyapunov-based
// buffer-only rate adaptation. Not evaluated in the paper, but a natural
// extra target for the adversarial framework (the paper's framework is
// protocol-agnostic) and a stronger buffer-based baseline than BB.
//
// BOLA-BASIC: pick the quality maximizing (V * (v_q + gamma_p) - Q) / s_q,
// where v_q = ln(s_q / s_min) is the utility of quality q, s_q its chunk
// size, Q the buffer level in chunks, and V scales utility against buffer
// risk (derived from the buffer capacity).
#pragma once

#include "abr/protocol.hpp"

namespace netadv::abr {

class Bola final : public AbrProtocol {
 public:
  struct Params {
    /// Target maximum buffer in seconds used to derive V.
    double buffer_target_s = 40.0;
    /// The gamma * p term (utility units); larger favors avoiding stalls.
    double gamma_p = 5.0;
  };

  Bola() : Bola(Params{}) {}
  explicit Bola(Params params);

  std::string name() const override { return "bola"; }
  void begin_video(const VideoManifest& manifest) override;
  std::size_t choose_quality(const AbrObservation& observation) override;

 private:
  Params params_;
  const VideoManifest* manifest_ = nullptr;
  std::vector<double> utilities_;
  double v_ = 0.0;
};

}  // namespace netadv::abr
