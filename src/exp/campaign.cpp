#include "exp/campaign.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/fairness_adversary.hpp"
#include "core/registry.hpp"
#include "util/config.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"

namespace netadv::exp {

namespace {

[[noreturn]] void fail(const util::SpecFile& spec, std::size_t line,
                       const std::string& what) {
  throw std::runtime_error{spec.source + ":" + std::to_string(line) + ": " +
                           what};
}

std::uint64_t parse_u64(const std::string& text, const std::string& what) {
  if (const auto value = util::parse_unsigned(text)) return *value;
  throw std::runtime_error{"campaign: " + what + " is not an integer: '" +
                           text + "'"};
}

JobSpec job_from_section(const util::SpecFile& spec,
                         const util::SpecSection& section) {
  if (section.label.empty()) {
    fail(spec, section.line, "[job] sections need an id: [job <id>]");
  }
  JobSpec job;
  job.id = section.label;
  for (const auto& [key, value] : section.entries) {
    if (key == "kind") {
      job.kind = value;
    } else if (key == "after") {
      for (auto& dep : util::split_list(value)) job.after.push_back(dep);
    } else if (key == "seed") {
      job.seed = parse_u64(value, "job '" + job.id + "' seed");
    } else {
      job.params.emplace_back(key, value);
    }
  }
  if (job.kind.empty()) {
    fail(spec, section.line, "job '" + job.id + "' has no kind");
  }
  return job;
}

/// Expand one grid template into concrete jobs; returns the expanded ids so
/// `after = <grid id>` elsewhere can depend on the whole sweep.
std::vector<std::string> expand_grid(const util::SpecFile& spec,
                                     const util::SpecSection& section,
                                     const JobSpec& grid,
                                     std::vector<JobSpec>& out) {
  const std::string* protocols_csv = grid.find("protocols");
  const std::string* flow_mixes_csv = grid.find("flow_mixes");
  if ((protocols_csv == nullptr) == (flow_mixes_csv == nullptr)) {
    fail(spec, section.line,
         "grid '" + grid.id +
             "' needs exactly one of protocols = ... (single-target sweep) "
             "or flow_mixes = ... (fairness sweep; '+'-joined sender names "
             "per mix, e.g. bbr+cubic)");
  }
  const std::vector<std::string> protocols =
      protocols_csv != nullptr ? util::split_list(*protocols_csv)
                               : std::vector<std::string>{};
  // A mix element like "bbr+cubic" becomes `flows = bbr,cubic` on every
  // expanded job ('+' joins members because ',' separates list elements).
  const std::vector<std::string> flow_mixes =
      flow_mixes_csv != nullptr ? util::split_list(*flow_mixes_csv)
                                : std::vector<std::string>{};
  const std::vector<std::string> adversaries =
      util::split_list(grid.value_or("adversaries", ""));
  const std::vector<std::string> trace_sets =
      util::split_list(grid.value_or("trace_sets", ""));
  if (adversaries.empty() == trace_sets.empty()) {
    fail(spec, section.line,
         "grid '" + grid.id +
             "' needs exactly one of adversaries = ... (attack sweep) or "
             "trace_sets = ... (replay sweep)");
  }
  // qoe_models turns a replay sweep into a serving sweep: protocols x
  // qoe_models x trace_sets expand to `serve` jobs instead of `replay`.
  const std::vector<std::string> qoe_models =
      util::split_list(grid.value_or("qoe_models", ""));
  for (const auto& qm : qoe_models) {
    if (!core::qoe_models().contains(qm)) {
      fail(spec, section.line,
           "grid '" + grid.id + "': unknown " +
               core::qoe_models().category() + " '" + qm + "' (" +
               core::qoe_models().names() + ")");
    }
  }
  if (!qoe_models.empty() && trace_sets.empty()) {
    fail(spec, section.line,
         "grid '" + grid.id + "': qoe_models sweeps sessions over recorded "
         "traces — pair it with trace_sets = ...");
  }
  if (!qoe_models.empty() && flow_mixes_csv != nullptr) {
    fail(spec, section.line,
         "grid '" + grid.id + "': qoe_models scores ABR sessions — use "
         "protocols = ... instead of flow_mixes = ...");
  }
  std::vector<std::uint64_t> seeds;
  for (const auto& s : util::split_list(grid.value_or("seeds", ""))) {
    seeds.push_back(parse_u64(s, "grid '" + grid.id + "' seeds"));
  }

  // Load-time validation against the domain's live registry, so a typo
  // fails when the spec parses, not waves into the run. `domain` itself is
  // *not* consumed: it forwards to every expanded job like any shared param.
  core::TargetDomain domain = core::TargetDomain::kAbr;
  try {
    domain = core::parse_domain(grid.value_or("domain", "abr"));
  } catch (const std::exception& e) {
    fail(spec, section.line, "grid '" + grid.id + "': " + e.what());
  }
  const core::RegistryBase& targets =
      domain == core::TargetDomain::kCc
          ? static_cast<const core::RegistryBase&>(core::cc_senders())
          : core::abr_protocols();
  for (const auto& protocol : protocols) {
    if (!targets.contains(protocol)) {
      fail(spec, section.line,
           "grid '" + grid.id + "': unknown " + targets.category() + " '" +
               protocol + "' (" + targets.names() + ")");
    }
  }
  if (!flow_mixes.empty() && domain != core::TargetDomain::kCc) {
    fail(spec, section.line,
         "grid '" + grid.id + "': flow_mixes needs domain = cc — a flow mix "
         "is a set of cc senders sharing one bottleneck");
  }
  for (const auto& mix : flow_mixes) {
    std::size_t members = 0;
    std::string name;
    const auto check = [&] {
      ++members;
      if (!core::cc_senders().contains(name)) {
        fail(spec, section.line,
             "grid '" + grid.id + "': flow mix '" + mix + "': unknown " +
                 core::cc_senders().category() + " '" + name + "' (" +
                 core::cc_senders().names() + ")");
      }
      name.clear();
    };
    for (const char c : mix) {
      if (c == '+') {
        check();
      } else {
        name += c;
      }
    }
    check();
    if (members < 2) {
      fail(spec, section.line,
           "grid '" + grid.id + "': flow mix '" + mix +
               "' needs at least two '+'-joined flows (e.g. bbr+cubic)");
    }
  }
  for (const auto& adversary : adversaries) {
    const core::EntryInfo* info = core::adversary_kinds().info(adversary);
    if (info == nullptr) {
      fail(spec, section.line,
           "grid '" + grid.id + "': unknown adversary kind '" + adversary +
               "' (" + core::adversary_kinds().names() + ")");
    }
    if (info->domain != core::TargetDomain::kAny && info->domain != domain) {
      fail(spec, section.line,
           "grid '" + grid.id + "': adversary '" + adversary + "' is " +
               core::to_string(info->domain) +
               "-only, but the grid's domain is " + core::to_string(domain));
    }
    const bool is_fairness =
        core::fairness_scenario_for(adversary).has_value();
    if (is_fairness && flow_mixes.empty()) {
      fail(spec, section.line,
           "grid '" + grid.id + "': adversary '" + adversary +
               "' attacks a flow mix — use flow_mixes = ... instead of "
               "protocols = ...");
    }
    if (!is_fairness && !flow_mixes.empty()) {
      fail(spec, section.line,
           "grid '" + grid.id + "': adversary '" + adversary +
               "' attacks a single target — use protocols = ... instead of "
               "flow_mixes = ...");
    }
  }

  // Params forwarded verbatim to every expanded job (the sweep axes and the
  // engine keys are consumed here).
  std::vector<std::pair<std::string, std::string>> shared;
  for (const auto& [key, value] : grid.params) {
    if (key == "protocols" || key == "adversaries" || key == "seeds" ||
        key == "trace_sets" || key == "flow_mixes" || key == "qoe_models") {
      continue;
    }
    shared.emplace_back(key, value);
  }

  std::vector<std::string> expanded_ids;
  auto emit = [&](JobSpec job) {
    expanded_ids.push_back(job.id);
    out.push_back(std::move(job));
  };

  // "bbr+cubic" -> "bbr,cubic": the '+'-joined spec element as the job-level
  // `flows =` list.
  const auto mix_flows = [](const std::string& mix) {
    std::string flows = mix;
    std::replace(flows.begin(), flows.end(), '+', ',');
    return flows;
  };

  const std::vector<std::optional<std::uint64_t>> seed_axis =
      seeds.empty()
          ? std::vector<std::optional<std::uint64_t>>{std::nullopt}
          : [&] {
              std::vector<std::optional<std::uint64_t>> axis;
              for (const auto s : seeds) axis.emplace_back(s);
              return axis;
            }();

  if (!trace_sets.empty()) {
    if (!qoe_models.empty()) {
      // Serving sweep: protocols x qoe_models x trace_sets x seeds, each
      // point one `serve` job multiplexing sessions over the recorded set.
      for (const auto& protocol : protocols) {
        for (const auto& qm : qoe_models) {
          for (const auto& set : trace_sets) {
            for (const auto& seed : seed_axis) {
              const std::string tag =
                  seed.has_value() ? "-s" + std::to_string(*seed) : "";
              JobSpec job;
              job.id = grid.id + "-" + protocol + "-" + qm + "-on-" + set + tag;
              job.kind = "serve";
              job.after = grid.after;
              job.after.push_back(set);
              job.params = shared;
              job.params.emplace_back("protocol", protocol);
              job.params.emplace_back("qoe", qm);
              job.params.emplace_back("traces", set);
              job.seed = seed;
              emit(std::move(job));
            }
          }
        }
      }
      return expanded_ids;
    }
    // Replay sweep: targets x trace_sets (a target is one protocol, or one
    // whole flow mix replaying each trace together).
    for (const auto& protocol : protocols) {
      for (const auto& set : trace_sets) {
        JobSpec job;
        job.id = grid.id + "-" + protocol + "-on-" + set;
        job.kind = "replay";
        job.after = grid.after;
        job.after.push_back(set);
        job.params = shared;
        job.params.emplace_back("protocol", protocol);
        job.params.emplace_back("traces", set);
        emit(std::move(job));
      }
    }
    for (const auto& mix : flow_mixes) {
      for (const auto& set : trace_sets) {
        JobSpec job;
        job.id = grid.id + "-" + mix + "-on-" + set;
        job.kind = "replay";
        job.after = grid.after;
        job.after.push_back(set);
        job.params = shared;
        job.params.emplace_back("flows", mix_flows(mix));
        job.params.emplace_back("traces", set);
        emit(std::move(job));
      }
    }
    return expanded_ids;
  }

  if (!flow_mixes.empty()) {
    // Fairness attack sweep: flow_mixes x adversaries x seeds. Every
    // fairness kind is PPO-trained, so each point is a train-adversary job
    // feeding a record-traces job (mirroring the ppo branch below).
    for (const auto& mix : flow_mixes) {
      for (const auto& adversary : adversaries) {
        for (const auto& seed : seed_axis) {
          const std::string tag =
              seed.has_value() ? "-s" + std::to_string(*seed) : "";
          const std::string point_id =
              grid.id + "-" + mix + "-" + adversary + tag;
          JobSpec train;
          train.id = point_id + "-train";
          train.kind = "train-adversary";
          train.after = grid.after;
          train.params = shared;
          train.params.emplace_back("flows", mix_flows(mix));
          train.params.emplace_back("adversary", adversary);
          train.seed = seed;

          JobSpec record;
          record.id = point_id;
          record.kind = "record-traces";
          record.after = grid.after;
          record.after.push_back(train.id);
          record.params = shared;
          record.params.emplace_back("flows", mix_flows(mix));
          record.params.emplace_back("adversary", adversary);
          record.params.emplace_back("from", train.id);
          record.seed = seed;
          emit(std::move(train));
          emit(std::move(record));
        }
      }
    }
    return expanded_ids;
  }

  // Attack sweep: protocols x adversaries x seeds. A PPO point is a
  // train-adversary job feeding a record-traces job; a CEM point records
  // directly (CEM is trace-based — searching *is* recording).
  for (const auto& protocol : protocols) {
    for (const auto& adversary : adversaries) {
      for (const auto& seed : seed_axis) {
        const std::string tag =
            seed.has_value() ? "-s" + std::to_string(*seed) : "";
        const std::string point_id = grid.id + "-" + protocol + "-" +
                                     adversary + tag;
        if (adversary == "ppo") {
          JobSpec train;
          train.id = point_id + "-train";
          train.kind = "train-adversary";
          train.after = grid.after;
          train.params = shared;
          train.params.emplace_back("protocol", protocol);
          train.seed = seed;

          JobSpec record;
          record.id = point_id;
          record.kind = "record-traces";
          record.after = grid.after;
          record.after.push_back(train.id);
          record.params = shared;
          record.params.emplace_back("protocol", protocol);
          record.params.emplace_back("from", train.id);
          record.seed = seed;
          emit(std::move(train));
          emit(std::move(record));
        } else {
          // cem (validated above): trace-based — searching *is* recording.
          JobSpec record;
          record.id = point_id;
          record.kind = "record-traces";
          record.after = grid.after;
          record.params = shared;
          record.params.emplace_back("protocol", protocol);
          record.params.emplace_back("adversary", "cem");
          record.seed = seed;
          emit(std::move(record));
        }
      }
    }
  }
  return expanded_ids;
}

/// Expand one [job <id>] kind = cotrain template into the full
/// generation-based adversary <-> protocol co-training DAG (DESIGN.md §13):
///
///   <id>-corpus                      gen-traces (the shared base corpus)
///   <id>-gen0                        train-protocol, published as store v0
///   per generation g (0-based), vs the current champion:
///     <id>-g<g>-ppo-s<seed>-train    train-adversary (one per seed)
///     <id>-g<g>-ppo-s<seed>          record-traces (its corpus)
///     <id>-g<g>-cem-s<seed>          record-traces, adversary = cem
///     <id>-g<g>-cand<c>              train-protocol, init = champion,
///                                    exploit_from = all g records, top_k = c
///     <id>-g<g>-matrix               eval-matrix over [gen0, champion,
///                                    cand1..C] x all g records
///     <id>-g<g>-promote              promote -> store v<g+1>, the next
///                                    generation's champion
///
/// Column 0 of every generation's matrix is the gen-0 baseline, so the
/// promotion rule (argmax worst-case QoE) guarantees the promoted champion
/// never scores below gen-0 on its own generation's adversary population.
std::vector<std::string> expand_cotrain(const util::SpecFile& spec,
                                        const util::SpecSection& section,
                                        const JobSpec& grid,
                                        std::vector<JobSpec>& out) {
  const auto bad = [&](const std::string& what) {
    fail(spec, section.line, "cotrain '" + grid.id + "': " + what);
  };

  const std::string generations_text = grid.value_or("generations", "2");
  std::uint64_t generations = 0;
  try {
    generations = parse_u64(generations_text, "generations");
  } catch (const std::exception& e) {
    bad(e.what());
  }
  if (generations < 1) bad("generations must be >= 1");

  std::uint64_t candidates = 0;
  try {
    candidates = parse_u64(grid.value_or("candidates", "2"), "candidates");
  } catch (const std::exception& e) {
    bad(e.what());
  }
  if (candidates < 1) bad("candidates must be >= 1");

  const std::vector<std::string> adversaries =
      util::split_list(grid.value_or("adversaries", "ppo,cem"));
  for (const auto& adversary : adversaries) {
    if (adversary == "ppo" || adversary == "cem") continue;
    if (core::adversary_kinds().contains(adversary)) {
      bad("adversary '" + adversary + "' is cc-only (fairness kinds attack "
          "flow mixes) — co-training retrains Pensieve, an ABR protocol, so "
          "the population is ppo | cem");
    }
    bad("unknown adversary kind '" + adversary + "' (ppo | cem)");
  }
  if (adversaries.empty()) bad("adversaries must list ppo and/or cem");
  if (grid.value_or("domain", "abr") != "abr") {
    bad("co-training retrains Pensieve — domain is always abr");
  }

  std::vector<std::uint64_t> seeds;
  for (const auto& s : util::split_list(grid.value_or("seeds", ""))) {
    seeds.push_back(parse_u64(s, "cotrain '" + grid.id + "' seeds"));
  }
  const std::vector<std::optional<std::uint64_t>> seed_axis =
      seeds.empty()
          ? std::vector<std::optional<std::uint64_t>>{std::nullopt}
          : [&] {
              std::vector<std::optional<std::uint64_t>> axis;
              for (const auto s : seeds) axis.emplace_back(s);
              return axis;
            }();

  const std::string generator = grid.value_or("generator", "fcc");
  if (!core::trace_generators().contains(generator)) {
    bad("unknown generator '" + generator + "' (" +
        core::trace_generators().names() + ")");
  }
  const std::string store = grid.value_or("store", grid.id);

  // Params forwarded verbatim to every expanded job; the loop axes, the
  // per-kind budget keys, and the store name are consumed here.
  std::vector<std::pair<std::string, std::string>> shared;
  for (const auto& [key, value] : grid.params) {
    if (key == "generations" || key == "candidates" || key == "adversaries" ||
        key == "seeds" || key == "generator" || key == "corpus_count" ||
        key == "protocol_steps" || key == "adversary_steps" ||
        key == "traces" || key == "store") {
      continue;
    }
    shared.emplace_back(key, value);
  }
  const auto budget = [&](JobSpec& job, const std::string& to,
                          const std::string& from) {
    if (const std::string* value = grid.find(from)) {
      job.params.emplace_back(to, *value);
    }
  };

  std::vector<std::string> expanded_ids;
  auto emit = [&](JobSpec job) {
    expanded_ids.push_back(job.id);
    out.push_back(std::move(job));
  };

  const std::string corpus_id = grid.id + "-corpus";
  {
    JobSpec corpus;
    corpus.id = corpus_id;
    corpus.kind = "gen-traces";
    corpus.after = grid.after;
    corpus.params = shared;
    corpus.params.emplace_back("generator", generator);
    budget(corpus, "count", "corpus_count");
    emit(std::move(corpus));
  }

  const std::string gen0_id = grid.id + "-gen0";
  {
    JobSpec gen0;
    gen0.id = gen0_id;
    gen0.kind = "train-protocol";
    gen0.after = grid.after;
    gen0.after.push_back(corpus_id);
    gen0.params = shared;
    gen0.params.emplace_back("corpus_from", corpus_id);
    budget(gen0, "steps", "protocol_steps");
    gen0.params.emplace_back("store_name", store);
    gen0.params.emplace_back("store_version", "0");
    emit(std::move(gen0));
  }

  std::string champion = gen0_id;
  for (std::uint64_t g = 0; g < generations; ++g) {
    const std::string gen_tag = grid.id + "-g" + std::to_string(g);

    // (1) Train/record the adversary population against the champion.
    std::vector<std::string> records;
    for (const auto& adversary : adversaries) {
      for (const auto& seed : seed_axis) {
        const std::string tag =
            seed.has_value() ? "-s" + std::to_string(*seed) : "";
        const std::string point_id = gen_tag + "-" + adversary + tag;
        JobSpec record;
        record.id = point_id;
        record.kind = "record-traces";
        record.after = grid.after;
        record.after.push_back(champion);
        record.params = shared;
        record.params.emplace_back("protocol", "pensieve");
        record.params.emplace_back("checkpoint_from", champion);
        record.params.emplace_back("adversary", adversary);
        budget(record, "count", "traces");
        record.seed = seed;
        if (adversary == "ppo") {
          JobSpec train;
          train.id = point_id + "-train";
          train.kind = "train-adversary";
          train.after = grid.after;
          train.after.push_back(champion);
          train.params = shared;
          train.params.emplace_back("protocol", "pensieve");
          train.params.emplace_back("checkpoint_from", champion);
          budget(train, "steps", "adversary_steps");
          train.seed = seed;
          record.after.push_back(train.id);
          record.params.emplace_back("from", train.id);
          emit(std::move(train));
        }
        records.push_back(record.id);
        emit(std::move(record));
      }
    }

    // (2) Retrain candidates on the most-exploiting adversaries' corpora:
    // candidate c leans on the top-c exploiters (c = 1 retrains narrowly,
    // c = C broadly), so the matrix compares focus against coverage.
    const std::string exploiters = [&] {
      std::string joined;
      for (const auto& id : records) {
        if (!joined.empty()) joined += ",";
        joined += id;
      }
      return joined;
    }();
    std::vector<std::string> columns;
    columns.push_back(gen0_id);
    if (champion != gen0_id) columns.push_back(champion);
    for (std::uint64_t c = 1; c <= candidates; ++c) {
      JobSpec cand;
      cand.id = gen_tag + "-cand" + std::to_string(c);
      cand.kind = "train-protocol";
      cand.after = grid.after;
      cand.after.push_back(corpus_id);
      cand.after.push_back(champion);
      for (const auto& id : records) cand.after.push_back(id);
      cand.params = shared;
      cand.params.emplace_back("corpus_from", corpus_id);
      cand.params.emplace_back("init", champion);
      cand.params.emplace_back("exploit_from", exploiters);
      cand.params.emplace_back("top_k", std::to_string(c));
      budget(cand, "steps", "protocol_steps");
      columns.push_back(cand.id);
      emit(std::move(cand));
    }

    // (3) Fill the generation's regret matrix and promote the least-
    // exploitable column into the store as the next champion.
    const std::string column_list = [&] {
      std::string joined;
      for (const auto& id : columns) {
        if (!joined.empty()) joined += ",";
        joined += id;
      }
      return joined;
    }();
    JobSpec matrix;
    matrix.id = gen_tag + "-matrix";
    matrix.kind = "eval-matrix";
    matrix.after = grid.after;
    for (const auto& id : records) matrix.after.push_back(id);
    for (const auto& id : columns) matrix.after.push_back(id);
    matrix.params = shared;
    matrix.params.emplace_back("corpora", exploiters);
    matrix.params.emplace_back("checkpoints", column_list);
    const std::string matrix_id = matrix.id;
    emit(std::move(matrix));

    JobSpec promote;
    promote.id = gen_tag + "-promote";
    promote.kind = "promote";
    promote.after = grid.after;
    promote.after.push_back(matrix_id);
    for (const auto& id : columns) promote.after.push_back(id);
    promote.params = shared;
    promote.params.emplace_back("matrix_from", matrix_id);
    promote.params.emplace_back("checkpoints", column_list);
    promote.params.emplace_back("store_name", store);
    promote.params.emplace_back("store_version", std::to_string(g + 1));
    champion = promote.id;
    emit(std::move(promote));
  }
  return expanded_ids;
}

}  // namespace

const std::string* JobSpec::find(const std::string& key) const noexcept {
  const std::string* found = nullptr;
  for (const auto& [k, v] : params) {
    if (k == key) found = &v;
  }
  return found;
}

std::string JobSpec::value_or(const std::string& key,
                              const std::string& fallback) const {
  const std::string* v = find(key);
  return v != nullptr ? *v : fallback;
}

std::size_t Campaign::job_index(const std::string& id) const noexcept {
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    if (jobs[i].id == id) return i;
  }
  return static_cast<std::size_t>(-1);
}

Campaign parse_campaign(const util::SpecFile& spec) {
  Campaign campaign;
  bool saw_header = false;
  // Grid ids double as dependency groups naming every expanded job.
  std::vector<std::pair<std::string, std::vector<std::string>>> groups;
  for (const auto& section : spec.sections) {
    if (section.name == "campaign") {
      if (saw_header) fail(spec, section.line, "duplicate [campaign] section");
      saw_header = true;
      campaign.name = section.value_or("name", "");
      if (campaign.name.empty()) {
        fail(spec, section.line, "[campaign] needs name = ...");
      }
      if (const std::string* seed = section.find("seed")) {
        campaign.seed = parse_u64(*seed, "campaign seed");
      }
      campaign.out_dir = section.value_or("out_dir", "");
    } else if (section.name == "job") {
      JobSpec job = job_from_section(spec, section);
      if (job.kind == "grid") {
        groups.emplace_back(job.id, expand_grid(spec, section, job,
                                                campaign.jobs));
      } else if (job.kind == "cotrain") {
        groups.emplace_back(job.id, expand_cotrain(spec, section, job,
                                                   campaign.jobs));
      } else {
        campaign.jobs.push_back(std::move(job));
      }
    } else {
      fail(spec, section.line, "unknown section [" + section.name +
                                   "] (expected [campaign] or [job <id>])");
    }
  }
  if (!saw_header) {
    throw std::runtime_error{spec.source + ": missing [campaign] section"};
  }
  if (campaign.jobs.empty()) {
    throw std::runtime_error{spec.source + ": campaign '" + campaign.name +
                             "' declares no jobs"};
  }
  if (campaign.out_dir.empty()) {
    campaign.out_dir = util::bench_output_dir() + "/" + campaign.name;
  }

  // Resolve group references, check id uniqueness and dependency targets.
  for (std::size_t i = 0; i < campaign.jobs.size(); ++i) {
    for (std::size_t j = i + 1; j < campaign.jobs.size(); ++j) {
      if (campaign.jobs[i].id == campaign.jobs[j].id) {
        throw std::runtime_error{spec.source + ": duplicate job id '" +
                                 campaign.jobs[i].id + "'"};
      }
    }
  }
  for (auto& job : campaign.jobs) {
    std::vector<std::string> resolved;
    for (const auto& dep : job.after) {
      const auto group = std::find_if(
          groups.begin(), groups.end(),
          [&](const auto& g) { return g.first == dep; });
      if (group != groups.end()) {
        resolved.insert(resolved.end(), group->second.begin(),
                        group->second.end());
        continue;
      }
      if (campaign.job_index(dep) == static_cast<std::size_t>(-1)) {
        throw std::runtime_error{spec.source + ": job '" + job.id +
                                 "' depends on unknown job '" + dep + "'"};
      }
      resolved.push_back(dep);
    }
    // Dedup while preserving order (a grid edge can repeat a direct one).
    job.after.clear();
    for (auto& dep : resolved) {
      if (std::find(job.after.begin(), job.after.end(), dep) ==
          job.after.end()) {
        job.after.push_back(std::move(dep));
      }
    }
    if (std::find(job.after.begin(), job.after.end(), job.id) !=
        job.after.end()) {
      throw std::runtime_error{spec.source + ": job '" + job.id +
                               "' depends on itself"};
    }
  }
  topological_waves(campaign);  // rejects cycles at load time
  return campaign;
}

Campaign load_campaign(const std::string& path) {
  return parse_campaign(util::parse_spec_file(path));
}

std::vector<std::uint64_t> resolve_job_seeds(const Campaign& campaign) {
  util::Rng root{campaign.seed};
  std::vector<util::Rng> streams = root.fork_streams(campaign.jobs.size());
  std::vector<std::uint64_t> seeds(campaign.jobs.size());
  for (std::size_t i = 0; i < campaign.jobs.size(); ++i) {
    seeds[i] = campaign.jobs[i].seed.value_or(streams[i]());
  }
  return seeds;
}

std::uint64_t job_params_hash(const Campaign& campaign, const JobSpec& job,
                              std::uint64_t resolved_seed) {
  // Canonical serialization: sorted params so spelling order in the spec
  // cannot flip the fingerprint.
  std::vector<std::pair<std::string, std::string>> sorted = job.params;
  std::sort(sorted.begin(), sorted.end());
  std::uint64_t state = util::kFnvOffsetBasis;
  const auto fold = [&state](const std::string& text) {
    state = util::fnv1a64_accumulate(state, text);
    state = util::fnv1a64_accumulate(state, std::string_view{"\n", 1});
  };
  fold(campaign.name);
  fold(job.kind);
  for (const auto& [key, value] : sorted) fold(key + "=" + value);
  fold("seed=" + std::to_string(resolved_seed));
  return state;
}

std::vector<std::vector<std::size_t>> topological_waves(
    const Campaign& campaign) {
  const std::size_t n = campaign.jobs.size();
  std::vector<std::vector<std::size_t>> dependents(n);
  std::vector<std::size_t> pending(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    for (const auto& dep : campaign.jobs[i].after) {
      const std::size_t d = campaign.job_index(dep);
      if (d == static_cast<std::size_t>(-1)) {
        throw std::runtime_error{"campaign '" + campaign.name + "': job '" +
                                 campaign.jobs[i].id +
                                 "' depends on unknown job '" + dep + "'"};
      }
      dependents[d].push_back(i);
      ++pending[i];
    }
  }
  std::vector<std::vector<std::size_t>> waves;
  std::vector<std::size_t> ready;
  for (std::size_t i = 0; i < n; ++i) {
    if (pending[i] == 0) ready.push_back(i);
  }
  std::size_t placed = 0;
  while (!ready.empty()) {
    waves.push_back(ready);
    placed += ready.size();
    std::vector<std::size_t> next;
    for (const std::size_t i : ready) {
      for (const std::size_t d : dependents[i]) {
        if (--pending[d] == 0) next.push_back(d);
      }
    }
    std::sort(next.begin(), next.end());  // declaration order within a wave
    ready = std::move(next);
  }
  if (placed != n) {
    throw std::runtime_error{"campaign '" + campaign.name +
                             "': dependency cycle detected"};
  }
  return waves;
}

}  // namespace netadv::exp
