// The domain-neutral target registry.
//
// The paper's core claim is that the adversary framework is
// *protocol-agnostic*: the same RL recipe applies to ABR (§2/§3) and to
// congestion control (§4). This header is where that claim lives in code —
// one typed, self-describing registry per target family
//
//   abr_protocols()     name -> abr::AbrProtocol factory   (bb, bola, ...)
//   cc_senders()        name -> cc::CcSender factory       (bbr, cubic, ...)
//   trace_generators()  name -> trace::TraceGenerator      (fcc, 3g, random)
//   adversary_kinds()   name -> metadata only              (ppo, cem)
//   qoe_models()        name -> abr::QoeModel factory      (lin, log, ssim)
//
// plus the TargetDomain seam the trainer/recorder/campaign layers dispatch
// on. Every entry carries (domain, description, factory), so consumers never
// hand-maintain name lists: unknown-name errors enumerate the live registry,
// and `netadv_cli list` prints it.
//
// Factories may be parameterized via FactoryArgs (e.g. the `pensieve` entry
// takes `checkpoint = <path>`); plain entries ignore the args. Factories
// only construct new objects, so they are safe to call concurrently — the
// batch recorder/replay APIs take exactly the std::function<unique_ptr<T>()>
// closures Registry::factory() returns.
#pragma once

#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "cc/sender.hpp"

namespace netadv::abr {
class AbrProtocol;
class QoeModel;
}
namespace netadv::trace {
class TraceGenerator;
}

namespace netadv::core {

/// Which target family an entry (or an experiment) belongs to. kAny marks
/// domain-neutral machinery (campaign job kinds, the ppo adversary).
enum class TargetDomain { kAbr, kCc, kAny };

std::string to_string(TargetDomain domain);

/// Parse "abr" | "cc"; throws std::runtime_error naming the valid spellings.
TargetDomain parse_domain(const std::string& text);

/// Key -> value parameters handed to registry factories. Owned overrides
/// (set) shadow an optional fallback lookup (bind) — jobs bind their
/// JobSpec's params and inject resolved artifact paths as overrides.
class FactoryArgs {
 public:
  using Lookup = std::function<const std::string*(const std::string&)>;

  FactoryArgs() = default;

  void set(std::string key, std::string value) {
    owned_.emplace_back(std::move(key), std::move(value));
  }
  void bind(Lookup fallback) { fallback_ = std::move(fallback); }

  const std::string* find(const std::string& key) const {
    for (const auto& [k, v] : owned_) {
      if (k == key) return &v;
    }
    return fallback_ ? fallback_(key) : nullptr;
  }
  std::string value_or(const std::string& key,
                       const std::string& fallback) const {
    const std::string* value = find(key);
    return value != nullptr ? *value : fallback;
  }

 private:
  std::vector<std::pair<std::string, std::string>> owned_;
  Lookup fallback_;
};

/// Self-description of one registry entry.
struct EntryInfo {
  std::string name;
  TargetDomain domain = TargetDomain::kAny;
  std::string description;
  /// Entries that opted in resolve qualified names: `pensieve@champion`
  /// splits into the entry ("pensieve") and a checkpoint-store ref
  /// ("champion", "champion@v2", ...) handed to the factory as the
  /// `store_ref` arg (resolved through core::CheckpointStore — the store
  /// root comes from the `store` arg). Entries without the flag reject
  /// qualified spellings, so `bb@foo` can never silently mean `bb`.
  bool store_refs = false;
};

/// The untyped part every registry shares: entry metadata, name lookup, and
/// the enumerating error text.
class RegistryBase {
 public:
  /// `category` names what the registry holds in error messages
  /// ("protocol", "sender", "generator", "adversary").
  explicit RegistryBase(std::string category)
      : category_(std::move(category)) {}

  const std::string& category() const noexcept { return category_; }
  const std::vector<EntryInfo>& entries() const noexcept { return entries_; }
  bool contains(const std::string& name) const noexcept {
    return resolve_index(name, nullptr) != npos;
  }
  const EntryInfo* info(const std::string& name) const noexcept {
    const std::size_t i = resolve_index(name, nullptr);
    return i == npos ? nullptr : &entries_[i];
  }

  /// Every registered name, registration order, joined by `separator` —
  /// "bb | bola | mpc" for error text, "bb|bola|mpc" for usage lines.
  std::string names(const std::string& separator = " | ") const {
    std::string joined;
    for (const auto& entry : entries_) {
      if (!joined.empty()) joined += separator;
      joined += entry.name;
    }
    return joined;
  }

  /// The uniform unknown-name error: enumerates the live registry so the
  /// message can never drift from what is actually registered.
  [[noreturn]] void throw_unknown(const std::string& name) const {
    throw std::runtime_error{"unknown " + category_ + " '" + name + "' (" +
                             names() + ")"};
  }

 protected:
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  std::size_t index_of(const std::string& name) const noexcept {
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      if (entries_[i].name == name) return i;
    }
    return npos;
  }

  /// index_of plus `<entry>@<ref>` resolution for store_refs entries: an
  /// exact match wins with an empty ref; otherwise the part before the
  /// first '@' must name a store_refs entry, and the remainder (which may
  /// itself contain '@', as in "champion@v2") comes back through `ref`.
  /// npos when neither resolves — including a qualified spelling of an
  /// entry that did not opt in.
  std::size_t resolve_index(const std::string& name,
                            std::string* ref) const noexcept {
    std::size_t i = index_of(name);
    if (i != npos) return i;
    const std::size_t at = name.find('@');
    if (at == std::string::npos || at == 0 || at + 1 >= name.size()) {
      return npos;
    }
    i = index_of(name.substr(0, at));
    if (i == npos || !entries_[i].store_refs) return npos;
    if (ref != nullptr) *ref = name.substr(at + 1);
    return i;
  }

  /// throw_unknown, but when `name` is a qualified spelling of a known
  /// entry that does not take store refs, say *that* instead of "unknown".
  [[noreturn]] void throw_unresolved(const std::string& name) const {
    const std::size_t at = name.find('@');
    if (at != std::string::npos && at > 0) {
      const std::string base = name.substr(0, at);
      if (index_of(base) != npos) {
        throw std::runtime_error{category_ + " '" + base +
                                 "' does not take a checkpoint-store ref ('" +
                                 name + "')"};
      }
    }
    throw_unknown(name);
  }

  /// Registration-time duplicate rejection: registries are the single source
  /// of truth, so a silently shadowed entry would be a latent lie.
  std::size_t add_info(EntryInfo info) {
    if (contains(info.name)) {
      throw std::invalid_argument{"duplicate " + category_ +
                                  " registration: '" + info.name + "'"};
    }
    entries_.push_back(std::move(info));
    return entries_.size() - 1;
  }

 private:
  std::string category_;
  std::vector<EntryInfo> entries_;
};

/// Metadata-only registry (adversary kinds: training is structural, so
/// there is no factory — jobs.cpp dispatches on the name).
class InfoRegistry final : public RegistryBase {
 public:
  using RegistryBase::RegistryBase;
  void add(std::string name, TargetDomain domain, std::string description) {
    add_info({std::move(name), domain, std::move(description)});
  }
};

/// Typed registry: name -> factory + metadata.
template <typename T>
class Registry final : public RegistryBase {
 public:
  using Factory = std::function<std::unique_ptr<T>(const FactoryArgs&)>;

  using RegistryBase::RegistryBase;

  void add(std::string name, TargetDomain domain, std::string description,
           Factory factory) {
    add(EntryInfo{std::move(name), domain, std::move(description)},
        std::move(factory));
  }

  /// Full-EntryInfo registration — the way to opt an entry into
  /// checkpoint-store refs (EntryInfo::store_refs).
  void add(EntryInfo info, Factory factory) {
    add_info(std::move(info));
    factories_.push_back(std::move(factory));
  }

  /// nullptr on an unresolvable name; a known entry's factory may still
  /// throw (e.g. pensieve without `checkpoint =`).
  std::unique_ptr<T> try_make(const std::string& name,
                              const FactoryArgs& args = {}) const {
    std::string ref;
    const std::size_t i = resolve_index(name, &ref);
    return i == npos ? nullptr : factories_[i](with_ref(args, ref));
  }

  /// Like try_make but an unresolvable name throws, enumerating the
  /// registry (or naming the entry that rejected a store ref).
  std::unique_ptr<T> make(const std::string& name,
                          const FactoryArgs& args = {}) const {
    std::string ref;
    const std::size_t i = resolve_index(name, &ref);
    if (i == npos) throw_unresolved(name);
    return factories_[i](with_ref(args, ref));
  }

  /// Resolve `name` once, up front (unresolvable names throw here, before
  /// any work), and return a repeatable thread-safe factory — the shape the
  /// batch recorder/replay APIs take.
  std::function<std::unique_ptr<T>()> factory(const std::string& name,
                                              FactoryArgs args = {}) const {
    std::string ref;
    const std::size_t i = resolve_index(name, &ref);
    if (i == npos) throw_unresolved(name);
    return [factory = &factories_[i], args = with_ref(args, ref)] {
      return (*factory)(args);
    };
  }

 private:
  /// A qualified name's ref rides to the factory as the `store_ref` arg;
  /// unqualified calls pass `args` through untouched.
  static FactoryArgs with_ref(const FactoryArgs& args, const std::string& ref) {
    if (ref.empty()) return args;
    FactoryArgs qualified = args;
    qualified.set("store_ref", ref);
    return qualified;
  }

  std::vector<Factory> factories_;
};

/// The live registries (immutable singletons, built on first use).
const Registry<abr::AbrProtocol>& abr_protocols();
const Registry<cc::CcSender>& cc_senders();
const Registry<trace::TraceGenerator>& trace_generators();
const InfoRegistry& adversary_kinds();
/// QoE scoring models (abr/qoe_model.hpp): `lin` (QoE_lin, the paper's
/// metric), `log`, and `ssim` (per-chunk table; `ssim_table = <csv>`
/// selects a measured table, otherwise a deterministic synthetic one).
/// Campaigns select one with `qoe = <name>`; `mpc-dp` plans against it.
const Registry<abr::QoeModel>& qoe_models();

/// Resolve a flow-mix spec ("bbr,cubic" / "bbr,bbr,vivace") into per-flow
/// sender factories via cc_senders(). The mix is what fairness adversaries
/// attack, so it needs at least two flows; unknown names throw the
/// registry's enumerating error.
std::vector<cc::SenderFactory> resolve_flow_mix(const std::string& flows_csv);

}  // namespace netadv::core
