#include "core/registry.hpp"

#include "abr/bb.hpp"
#include "abr/bola.hpp"
#include "abr/mpc.hpp"
#include "abr/mpc_dp.hpp"
#include "abr/pensieve.hpp"
#include "abr/qoe_model.hpp"
#include "abr/throughput_rule.hpp"
#include "abr/video.hpp"
#include "cc/bbr.hpp"
#include "cc/copa.hpp"
#include "cc/cubic.hpp"
#include "cc/vivace.hpp"
#include "core/checkpoint_store.hpp"
#include "rl/checkpoint.hpp"
#include "trace/generators.hpp"
#include "util/config.hpp"
#include "util/spec.hpp"

namespace netadv::core {

std::string to_string(TargetDomain domain) {
  switch (domain) {
    case TargetDomain::kAbr:
      return "abr";
    case TargetDomain::kCc:
      return "cc";
    case TargetDomain::kAny:
      return "any";
  }
  return "any";
}

TargetDomain parse_domain(const std::string& text) {
  if (text == "abr") return TargetDomain::kAbr;
  if (text == "cc") return TargetDomain::kCc;
  throw std::runtime_error{"unknown domain '" + text + "' (abr | cc)"};
}

namespace {

/// Plain entries: default-construct, ignore args.
template <typename Base, typename Concrete>
typename Registry<Base>::Factory plain() {
  return [](const FactoryArgs&) -> std::unique_ptr<Base> {
    return std::make_unique<Concrete>();
  };
}

/// The parameterized entry: Pensieve serves a trained checkpoint, selected
/// either by `checkpoint = <path>` (campaigns point at a job's
/// _pensieve.ckpt) or by a population ref — `pensieve@<name>[@vK]` routes
/// the qualifier here as `store_ref`, resolved through the CheckpointStore
/// rooted at the `store` arg (default <bench out dir>/checkpoint_store).
std::unique_ptr<abr::AbrProtocol> make_pensieve(const FactoryArgs& args) {
  std::string resolved;
  const std::string* checkpoint = args.find("checkpoint");
  if (const std::string* ref = args.find("store_ref")) {
    const CheckpointStore store{args.value_or(
        "store", util::bench_output_dir() + "/checkpoint_store")};
    resolved = store.resolve(*ref).path;
    checkpoint = &resolved;
  }
  if (checkpoint == nullptr) {
    throw std::runtime_error{
        "protocol 'pensieve' needs checkpoint = <path to a trained "
        "_pensieve.ckpt> (or checkpoint_from = <training job> in a "
        "campaign, or a store ref: pensieve@<name>[@vK])"};
  }
  // The deterministic-size manifest every adversary experiment uses
  // (size_variation = 0) — it fixes the ladder, i.e. the net topology.
  abr::VideoManifest::Params mp;
  mp.size_variation = 0.0;
  const abr::VideoManifest manifest{mp};
  rl::PpoAgent agent = abr::make_pensieve_agent(manifest, /*seed=*/0);
  rl::load_checkpoint(agent, *checkpoint);
  return std::make_unique<abr::OwnedPensievePolicy>(agent);
}

/// `ssim_table = <path>` loads a measured per-chunk table; without it the
/// model synthesizes a deterministic curve from the manifest's chunk sizes.
std::unique_ptr<abr::QoeModel> make_ssim_qoe(const FactoryArgs& args) {
  if (const std::string* table = args.find("ssim_table")) {
    return std::make_unique<abr::SsimTableQoe>(abr::load_ssim_table(*table));
  }
  return std::make_unique<abr::SsimTableQoe>();
}

Registry<abr::QoeModel> build_qoe_models() {
  Registry<abr::QoeModel> reg{"qoe model"};
  const auto abr = TargetDomain::kAbr;
  reg.add("lin", abr,
          "QoE_lin: bitrate - 4.3*rebuffer - |bitrate change| (the paper's "
          "metric)",
          plain<abr::QoeModel, abr::LinQoe>());
  reg.add("log", abr,
          "QoE_log: log(R/R_min) quality term, MPC's concave variant",
          plain<abr::QoeModel, abr::LogQoe>());
  reg.add("ssim", abr,
          "per-chunk SSIM-dB table (ssim_table = <csv>, else a synthetic "
          "size-derived curve)",
          make_ssim_qoe);
  return reg;
}

/// `qoe = lin | log | ssim` (default lin) selects the model mpc-dp plans
/// against; extra args (e.g. `ssim_table =`) forward to the model factory.
std::unique_ptr<abr::AbrProtocol> make_mpc_dp(const FactoryArgs& args) {
  return std::make_unique<abr::MpcDp>(
      abr::MpcDp::Params{}, qoe_models().make(args.value_or("qoe", "lin"),
                                              args));
}

Registry<abr::AbrProtocol> build_abr_protocols() {
  Registry<abr::AbrProtocol> reg{"protocol"};
  const auto abr = TargetDomain::kAbr;
  reg.add("bb", abr, "buffer-based rate control (Fig. 3's target)",
          plain<abr::AbrProtocol, abr::BufferBased>());
  reg.add("bola", abr, "BOLA Lyapunov-utility controller",
          plain<abr::AbrProtocol, abr::Bola>());
  reg.add("mpc", abr, "RobustMPC model-predictive controller",
          plain<abr::AbrProtocol, abr::RobustMpc>());
  reg.add("mpc-dp", abr,
          "puffer-style DP over a discretized buffer grid (qoe = "
          "lin|log|ssim)",
          make_mpc_dp);
  reg.add("throughput", abr, "last-throughput rate matcher",
          plain<abr::AbrProtocol, abr::ThroughputRule>());
  reg.add(EntryInfo{"pensieve", abr,
                    "PPO-trained Pensieve policy (checkpoint = <path>, or a "
                    "store ref: pensieve@<name>[@vK])",
                    /*store_refs=*/true},
          make_pensieve);
  return reg;
}

Registry<cc::CcSender> build_cc_senders() {
  Registry<cc::CcSender> reg{"sender"};
  const auto cc = TargetDomain::kCc;
  reg.add("bbr", cc, "BBRv1 model-based state machine (Fig. 5's target)",
          plain<cc::CcSender, cc::BbrSender>());
  reg.add("cubic", cc, "CUBIC loss-based window growth",
          plain<cc::CcSender, cc::CubicSender>());
  reg.add("copa", cc, "Copa delay-based target-rate controller",
          plain<cc::CcSender, cc::CopaSender>());
  reg.add("vivace", cc, "PCC Vivace online-learning rate control",
          plain<cc::CcSender, cc::VivaceSender>());
  reg.add("reno", cc, "NewReno AIMD baseline",
          plain<cc::CcSender, cc::RenoSender>());
  return reg;
}

Registry<trace::TraceGenerator> build_trace_generators() {
  Registry<trace::TraceGenerator> reg{"generator"};
  const auto any = TargetDomain::kAny;
  reg.add("fcc", any, "FCC-broadband-like synthetic corpus",
          plain<trace::TraceGenerator, trace::FccLikeGenerator>());
  reg.add("3g", any, "Norway-3G/HSDPA-like synthetic corpus",
          plain<trace::TraceGenerator, trace::Hsdpa3gLikeGenerator>());
  reg.add("random", any, "uniform-random bandwidth levels",
          plain<trace::TraceGenerator, trace::UniformRandomGenerator>());
  return reg;
}

InfoRegistry build_adversary_kinds() {
  InfoRegistry reg{"adversary"};
  reg.add("ppo", TargetDomain::kAny,
          "RL adversary, the paper's recipe (train-adversary -> "
          "record-traces); attacks ABR protocols and CC senders alike");
  reg.add("cem", TargetDomain::kAbr,
          "cross-entropy trace search (Section 2.1's trace-based "
          "alternative); record-traces only — searching *is* recording");
  reg.add("fairness", TargetDomain::kCc,
          "RL fairness adversary over a flow mix (flows = a,b,...); paid "
          "for unfairness it induces (reward = jain | victim)");
  reg.add("cross-traffic", TargetDomain::kCc,
          "fairness adversary plus an on/off bursty non-responsive "
          "accomplice flow, burst schedule drawn per episode");
  reg.add("late-join", TargetDomain::kCc,
          "fairness adversary where the mix's last flow joins at a "
          "randomized time, so the adversary can ambush the arrival");
  return reg;
}

}  // namespace

const Registry<abr::AbrProtocol>& abr_protocols() {
  static const Registry<abr::AbrProtocol> registry = build_abr_protocols();
  return registry;
}

const Registry<cc::CcSender>& cc_senders() {
  static const Registry<cc::CcSender> registry = build_cc_senders();
  return registry;
}

const Registry<trace::TraceGenerator>& trace_generators() {
  static const Registry<trace::TraceGenerator> registry =
      build_trace_generators();
  return registry;
}

const InfoRegistry& adversary_kinds() {
  static const InfoRegistry registry = build_adversary_kinds();
  return registry;
}

const Registry<abr::QoeModel>& qoe_models() {
  static const Registry<abr::QoeModel> registry = build_qoe_models();
  return registry;
}

std::vector<cc::SenderFactory> resolve_flow_mix(const std::string& flows_csv) {
  const std::vector<std::string> names = util::split_list(flows_csv);
  if (names.size() < 2) {
    throw std::runtime_error{"flow mix '" + flows_csv +
                             "' needs at least two flows (e.g. flows = "
                             "bbr,cubic)"};
  }
  std::vector<cc::SenderFactory> factories;
  factories.reserve(names.size());
  for (const auto& name : names) {
    factories.push_back(cc_senders().factory(name));
  }
  return factories;
}

}  // namespace netadv::core
