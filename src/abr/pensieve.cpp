#include "abr/pensieve.hpp"

#include <algorithm>
#include <stdexcept>

#include "abr/runner.hpp"

namespace netadv::abr {

std::size_t pensieve_feature_size(const VideoManifest& manifest) {
  return 2 + 2 * kHistoryWindow + manifest.num_qualities() + 1;
}

rl::Vec pensieve_features(const AbrObservation& observation,
                          const VideoManifest& manifest) {
  rl::Vec f;
  f.reserve(pensieve_feature_size(manifest));
  f.push_back(observation.last_bitrate_mbps / manifest.max_bitrate_mbps());
  f.push_back(observation.buffer_s / 10.0);
  for (std::size_t i = 0; i < kHistoryWindow; ++i) {
    f.push_back(i < observation.throughput_history_mbps.size()
                    ? observation.throughput_history_mbps[i]
                    : 0.0);
  }
  for (std::size_t i = 0; i < kHistoryWindow; ++i) {
    f.push_back(i < observation.download_time_history_s.size()
                    ? observation.download_time_history_s[i]
                    : 0.0);
  }
  for (std::size_t q = 0; q < manifest.num_qualities(); ++q) {
    const double bits = q < observation.next_chunk_sizes_bits.size()
                            ? observation.next_chunk_sizes_bits[q]
                            : manifest.chunk_size_bits(
                                  std::min(observation.chunk_index,
                                           manifest.num_chunks() - 1),
                                  q);
    f.push_back(bits / 1e6);  // Mbits
  }
  f.push_back(static_cast<double>(observation.remaining_chunks) /
              static_cast<double>(manifest.num_chunks()));
  return f;
}

PensieveEnv::PensieveEnv(VideoManifest manifest,
                         std::vector<trace::Trace> traces, QoeParams qoe)
    : manifest_(std::move(manifest)), qoe_(qoe), session_(manifest_) {
  set_traces(std::move(traces));
}

std::size_t PensieveEnv::observation_size() const {
  return pensieve_feature_size(manifest_);
}

rl::ActionSpec PensieveEnv::action_spec() const {
  return rl::ActionSpec::discrete(manifest_.num_qualities());
}

void PensieveEnv::set_traces(std::vector<trace::Trace> traces) {
  if (traces.empty()) throw std::invalid_argument{"PensieveEnv: empty corpus"};
  for (const auto& t : traces) {
    if (t.empty()) throw std::invalid_argument{"PensieveEnv: empty trace in corpus"};
  }
  traces_ = std::move(traces);
}

rl::Vec PensieveEnv::observe() const {
  return pensieve_features(session_.observation(), manifest_);
}

rl::Vec PensieveEnv::reset(util::Rng& rng) {
  current_trace_ = &traces_[rng.index(traces_.size())];
  session_.restart();
  return observe();
}

rl::StepResult PensieveEnv::step(const rl::Vec& action, util::Rng& /*rng*/) {
  if (current_trace_ == nullptr) {
    throw std::logic_error{"PensieveEnv: step before reset"};
  }
  const auto quality = static_cast<std::size_t>(action.at(0));
  if (quality >= manifest_.num_qualities()) {
    throw std::invalid_argument{"PensieveEnv: bad quality action"};
  }

  const double prev_bitrate = session_.observation().last_bitrate_mbps;
  const double bandwidth =
      bandwidth_for_chunk(*current_trace_, session_.next_chunk());
  const DownloadResult result = session_.download_next(quality, bandwidth);

  rl::StepResult step_result;
  // First chunk carries no smoothness charge (the session starts with the
  // lowest rung as the last bitrate; chunk_qoe handles the |R1-R0| form via
  // the convention prev == own bitrate on chunk 0).
  const double prev_for_qoe =
      result.chunk_index == 0 ? result.bitrate_mbps : prev_bitrate;
  step_result.reward =
      chunk_qoe(result.bitrate_mbps, result.rebuffer_s, prev_for_qoe, qoe_);
  step_result.done = session_.finished();
  step_result.observation = observe();
  return step_result;
}

rl::PpoConfig pensieve_ppo_config() {
  rl::PpoConfig cfg;
  cfg.hidden_sizes = {64, 32};
  cfg.learning_rate = 3e-4;
  cfg.n_steps = 1024;
  cfg.minibatch_size = 128;
  cfg.epochs = 8;
  cfg.ent_coef = 0.02;  // Pensieve relies on entropy regularization
  return cfg;
}

rl::PpoAgent make_pensieve_agent(const VideoManifest& manifest,
                                 std::uint64_t seed,
                                 const rl::PpoConfig& config) {
  return rl::PpoAgent{pensieve_feature_size(manifest),
                      rl::ActionSpec::discrete(manifest.num_qualities()),
                      config, seed};
}

PensievePolicy::PensievePolicy(rl::PpoAgent& agent, std::string name)
    : agent_(agent), name_(std::move(name)) {}

void PensievePolicy::begin_video(const VideoManifest& manifest) {
  manifest_ = &manifest;
}

std::size_t PensievePolicy::choose_quality(const AbrObservation& observation) {
  if (manifest_ == nullptr) {
    throw std::logic_error{"PensievePolicy: begin_video not called"};
  }
  const rl::Vec features = pensieve_features(observation, *manifest_);
  const rl::Vec action = agent_.act_deterministic(features);
  return static_cast<std::size_t>(action[0]);
}

}  // namespace netadv::abr
