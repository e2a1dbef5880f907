#include "probes.hpp"

#include <utility>

namespace perfbench {

using namespace netadv;

ProbedProtocol::ProbedProtocol(std::unique_ptr<abr::AbrProtocol> inner,
                               Proto proto, FailureTally& tally, bool timed)
    : owned_(std::move(inner)),
      inner_(owned_.get()),
      proto_(proto),
      tally_(&tally),
      timed_(timed) {}

ProbedProtocol::ProbedProtocol(abr::AbrProtocol& inner, Proto proto,
                               FailureTally& tally, bool timed)
    : inner_(&inner), proto_(proto), tally_(&tally), timed_(timed) {}

void ProbedProtocol::begin_video(const abr::VideoManifest& manifest) {
  num_qualities_ = manifest.num_qualities();
  inner_->begin_video(manifest);
}

std::size_t ProbedProtocol::choose_quality(
    const abr::AbrObservation& observation) {
  std::size_t quality = 0;
  if (timed_) {
    const Clock::time_point start = Clock::now();
    quality = inner_->choose_quality(observation);
    const double seconds = seconds_since(start);
    Lane& l = lane();
    l.decide_s[proto_] += seconds;
    ++l.decisions[proto_];
    if (l.in_env_step) l.env_decide_s += seconds;
    l.latency_s.push_back(seconds);
  } else {
    quality = inner_->choose_quality(observation);
  }
  if (quality >= num_qualities_) {
    if (!failed_) {
      failed_ = true;
      tally_->bad_instances.fetch_add(1, std::memory_order_relaxed);
    }
    quality = 0;
  }
  return quality;
}

abr::ProtocolFactory probed_factory(abr::ProtocolFactory inner, Proto proto,
                                    FailureTally& tally, bool timed) {
  return [inner = std::move(inner), proto, &tally,
          timed]() -> std::unique_ptr<abr::AbrProtocol> {
    return std::make_unique<ProbedProtocol>(inner(), proto, tally, timed);
  };
}

namespace {

class LadderBreaker final : public abr::AbrProtocol {
 public:
  explicit LadderBreaker(std::unique_ptr<abr::AbrProtocol> inner)
      : inner_(std::move(inner)) {}

  std::string name() const override { return inner_->name(); }
  void begin_video(const abr::VideoManifest& manifest) override {
    num_qualities_ = manifest.num_qualities();
    inner_->begin_video(manifest);
  }
  std::size_t choose_quality(const abr::AbrObservation& observation) override {
    const std::size_t quality = inner_->choose_quality(observation);
    if (armed_) {
      armed_ = false;
      return num_qualities_;
    }
    return quality;
  }
  void arm() { armed_ = true; }

 private:
  std::unique_ptr<abr::AbrProtocol> inner_;
  std::size_t num_qualities_ = 0;
  bool armed_ = false;
};

}  // namespace

abr::ProtocolFactory ladder_breaking_factory(abr::ProtocolFactory inner) {
  auto built = std::make_shared<std::atomic<bool>>(false);
  return [inner = std::move(inner),
          built]() -> std::unique_ptr<abr::AbrProtocol> {
    auto breaker = std::make_unique<LadderBreaker>(inner());
    if (!built->exchange(true)) breaker->arm();
    return breaker;
  };
}

rl::Vec TracedEnv::reset(util::Rng& rng) {
  Lane& l = lane();
  const Clock::time_point start = Clock::now();
  rl::Vec observation = inner_->reset(rng);
  last_step_end_ = Clock::now();
  l.env_step_s += std::chrono::duration<double>(last_step_end_ - start).count();
  return observation;
}

rl::StepResult TracedEnv::step(const rl::Vec& action, util::Rng& rng) {
  Lane& l = lane();
  l.in_env_step = true;
  const Clock::time_point start = Clock::now();
  rl::StepResult result = inner_->step(action, rng);
  last_step_end_ = Clock::now();
  l.in_env_step = false;
  l.env_step_s += std::chrono::duration<double>(last_step_end_ - start).count();
  ++l.env_steps;
  return result;
}

rl::TrainCallback TracedEnv::callback() {
  return [this](const rl::UpdateInfo&) {
    Lane& l = lane();
    l.update_s += seconds_since(last_step_end_);
    ++l.updates;
  };
}

std::vector<std::size_t> ProbedBatchPolicy::choose_batch(
    std::span<const abr::AbrObservation* const> observations) {
  const Clock::time_point start = Clock::now();
  std::vector<std::size_t> qualities = inner_->choose_batch(observations);
  Lane& l = lane();
  l.batch_infer_s += seconds_since(start);
  ++l.batches;
  l.batch_decisions += observations.size();
  return qualities;
}

exp::JobRegistry probed_jobs(const exp::JobRegistry& inner) {
  exp::JobRegistry probed;
  for (const auto& [kind, description] : inner.kinds()) {
    exp::JobExecutor executor = *inner.find(kind);
    probed.add(kind, description,
               [executor = std::move(executor),
                kind = kind](const exp::JobContext& ctx) -> exp::JobResult {
                 const std::string domain =
                     ctx.job->find("flows") != nullptr
                         ? "fairness"
                         : ctx.job->value_or("domain", "abr");
                 const Clock::time_point start = Clock::now();
                 auto record = [&] {
                   const double seconds = seconds_since(start);
                   Lane& l = lane();
                   l.job_s[kind + "." + domain] += seconds;
                   l.latency_s.push_back(seconds);
                 };
                 try {
                   exp::JobResult result = executor(ctx);
                   record();
                   return result;
                 } catch (...) {
                   record();
                   throw;
                 }
               });
  }
  return probed;
}

}  // namespace perfbench
