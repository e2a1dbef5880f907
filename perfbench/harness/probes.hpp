// Decorators at netadv's public seams. The benchmark measures the library
// from the outside: it never edits src/, it wraps the objects it hands in.
//
//   ProbedProtocol     abr::AbrProtocol from any factory passed to
//                      record_abr_traces, qoe_per_trace, SessionEngine::run,
//                      or used as an adversary env's target. Always checks
//                      that the decision is on the bitrate ladder (a bad one
//                      is tallied and replaced by quality 0, so the run goes
//                      on); when timed, records each decision's time.
//   TracedEnv          rl::Env: env step time, with the decisions the target
//                      made inside the step split out; its callback() is the
//                      rl::TrainCallback measuring each update.
//   ProbedBatchPolicy  serve::BatchPolicy: choose_batch time and batch sizes.
//   probed_jobs        exp::JobRegistry whose executors time each job.
#pragma once

#include <atomic>
#include <cstddef>
#include <memory>
#include <string>

#include "abr/protocol.hpp"
#include "abr/runner.hpp"
#include "exp/scheduler.hpp"
#include "ledger.hpp"
#include "rl/agent.hpp"
#include "rl/env.hpp"
#include "serve/batch_policy.hpp"

namespace perfbench {

/// Counts protocol instances that returned an out-of-ladder quality. One
/// instance serves one operation (a recorded trace, a replayed trace, a
/// served session), so this is a count of failed operations.
struct FailureTally {
  std::atomic<std::size_t> bad_instances{0};
};

class ProbedProtocol final : public netadv::abr::AbrProtocol {
 public:
  /// Owns `inner`.
  ProbedProtocol(std::unique_ptr<netadv::abr::AbrProtocol> inner, Proto proto,
                 FailureTally& tally, bool timed);
  /// Borrows `inner`, which must outlive this decorator.
  ProbedProtocol(netadv::abr::AbrProtocol& inner, Proto proto,
                 FailureTally& tally, bool timed);

  ProbedProtocol(const ProbedProtocol&) = delete;
  ProbedProtocol& operator=(const ProbedProtocol&) = delete;

  std::string name() const override { return inner_->name(); }
  void begin_video(const netadv::abr::VideoManifest& manifest) override;
  std::size_t choose_quality(
      const netadv::abr::AbrObservation& observation) override;

 private:
  std::unique_ptr<netadv::abr::AbrProtocol> owned_;
  netadv::abr::AbrProtocol* inner_;
  Proto proto_;
  FailureTally* tally_;
  bool timed_;
  bool failed_ = false;
  std::size_t num_qualities_ = 0;
};

/// Decorates a factory: every protocol it builds comes back probed.
netadv::abr::ProtocolFactory probed_factory(netadv::abr::ProtocolFactory inner,
                                            Proto proto, FailureTally& tally,
                                            bool timed);

/// Fault injection for the self-test: the first instance this factory
/// builds answers its first decision with an out-of-ladder quality.
netadv::abr::ProtocolFactory ladder_breaking_factory(
    netadv::abr::ProtocolFactory inner);

class TracedEnv final : public netadv::rl::Env {
 public:
  explicit TracedEnv(netadv::rl::Env& inner) : inner_(&inner) {}

  std::string name() const override { return inner_->name(); }
  std::size_t observation_size() const override {
    return inner_->observation_size();
  }
  netadv::rl::ActionSpec action_spec() const override {
    return inner_->action_spec();
  }
  netadv::rl::Vec reset(netadv::util::Rng& rng) override;
  netadv::rl::StepResult step(const netadv::rl::Vec& action,
                              netadv::util::Rng& rng) override;

  /// Callback timing each update from this env's last step to the callback
  /// (the GAE pass plus the gradient epochs). Must be called on the lane
  /// that trains on this env.
  netadv::rl::TrainCallback callback();

 private:
  netadv::rl::Env* inner_;
  Clock::time_point last_step_end_ = Clock::now();
};

class ProbedBatchPolicy final : public netadv::serve::BatchPolicy {
 public:
  explicit ProbedBatchPolicy(netadv::serve::BatchPolicy& inner)
      : inner_(&inner) {}

  std::string name() const override { return inner_->name(); }
  void begin_serving(const netadv::abr::VideoManifest& manifest) override {
    inner_->begin_serving(manifest);
  }
  std::vector<std::size_t> choose_batch(
      std::span<const netadv::abr::AbrObservation* const> observations)
      override;

 private:
  netadv::serve::BatchPolicy* inner_;
};

/// `inner` with every executor wrapped to add its wall time to the lane's
/// job_s["<kind>.<domain>"] and latency_s. The domain is `fairness` for a
/// job with a flow mix, else its `domain` parameter (default abr).
netadv::exp::JobRegistry probed_jobs(const netadv::exp::JobRegistry& inner);

}  // namespace perfbench
