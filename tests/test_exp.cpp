// Unit tests for netadv::exp — the campaign spec parser, grid expansion,
// provenance hashing, the DAG scheduler's determinism/resume contracts, and
// the spec/hash utilities they build on.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "exp/campaign.hpp"
#include "exp/jobs.hpp"
#include "exp/manifest.hpp"
#include "exp/scheduler.hpp"
#include "trace/trace.hpp"
#include "util/hash.hpp"
#include "util/spec.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace netadv;

std::string temp_dir(const std::string& name) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / name).string();
  std::filesystem::remove_all(dir);
  return dir;
}

std::string read_file(const std::string& path) {
  std::ifstream in{path};
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

// ---------------------------------------------------------------- spec

TEST(Spec, ParsesSectionsEntriesAndComments) {
  const util::SpecFile spec = util::parse_spec_text(
      "# a comment\n"
      "[campaign]\n"
      "name = demo\n"
      "\n"
      "[job first]\n"
      "kind = gen-traces\n"
      "count = 12\n",
      "inline");
  ASSERT_EQ(spec.sections.size(), 2u);
  EXPECT_EQ(spec.sections[0].name, "campaign");
  EXPECT_TRUE(spec.sections[0].label.empty());
  EXPECT_EQ(spec.sections[0].value_or("name", ""), "demo");
  EXPECT_EQ(spec.sections[1].name, "job");
  EXPECT_EQ(spec.sections[1].label, "first");
  EXPECT_EQ(spec.sections[1].value_or("count", ""), "12");
  EXPECT_FALSE(spec.sections[1].has("missing"));
}

TEST(Spec, LastValueWinsOnRepeatedKey) {
  const util::SpecFile spec =
      util::parse_spec_text("[s]\nk = a\nk = b\n", "inline");
  EXPECT_EQ(spec.sections[0].value_or("k", ""), "b");
}

TEST(Spec, RejectsEntryBeforeAnySection) {
  EXPECT_THROW(util::parse_spec_text("k = v\n", "inline"), std::runtime_error);
}

TEST(Spec, RejectsMalformedLine) {
  EXPECT_THROW(util::parse_spec_text("[s]\nnot a kv line\n", "inline"),
               std::runtime_error);
}

TEST(Spec, SplitListTrimsAndDropsEmpties) {
  const std::vector<std::string> items = util::split_list(" a, b ,, c ");
  ASSERT_EQ(items.size(), 3u);
  EXPECT_EQ(items[0], "a");
  EXPECT_EQ(items[1], "b");
  EXPECT_EQ(items[2], "c");
}

TEST(Spec, StrictNumbersRejectSignsJunkAndNonFinite) {
  EXPECT_EQ(util::parse_unsigned("0"), 0u);
  EXPECT_EQ(util::parse_unsigned("18446744073709551615"),
            18446744073709551615ull);
  for (const char* bad : {"", "-1", "+2", "20x", " 3", "3 ", "1.5",
                          "18446744073709551616"}) {
    EXPECT_EQ(util::parse_unsigned(bad), std::nullopt) << "'" << bad << "'";
  }
  EXPECT_EQ(util::parse_finite("2"), 2.0);
  EXPECT_EQ(util::parse_finite(".5"), 0.5);
  EXPECT_EQ(util::parse_finite("1e-3"), 1e-3);
  for (const char* bad : {"", "-1", "+2", "2s", " 2", "nan", "inf",
                          "infinity", "1e999"}) {
    EXPECT_EQ(util::parse_finite(bad), std::nullopt) << "'" << bad << "'";
  }
}

// ---------------------------------------------------------------- hash

TEST(Hash, MatchesKnownFnv1aVector) {
  // Standard FNV-1a 64-bit test vector.
  EXPECT_EQ(util::fnv1a64(""), 0xcbf29ce484222325ull);
  EXPECT_EQ(util::fnv1a64("a"), 0xaf63dc4c8601ec8cull);
}

TEST(Hash, HexIsFixedWidth) {
  EXPECT_EQ(util::hash_hex(0), "0000000000000000");
  EXPECT_EQ(util::hash_hex(0xabcull), "0000000000000abc");
}

TEST(Hash, FileHashTracksContent) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "netadv_hash_test.txt")
          .string();
  std::ofstream{path} << "hello";
  const std::uint64_t first = util::fnv1a64_file(path);
  EXPECT_EQ(first, util::fnv1a64("hello"));
  std::ofstream{path} << "other";
  EXPECT_NE(util::fnv1a64_file(path), first);
  EXPECT_THROW(util::fnv1a64_file(path + ".missing"), std::runtime_error);
}

// ---------------------------------------------------------------- campaign

exp::Campaign campaign_from(const std::string& text) {
  return exp::parse_campaign(util::parse_spec_text(text, "inline"));
}

TEST(Campaign, ParsesJobsAndDependencies) {
  const exp::Campaign c = campaign_from(
      "[campaign]\nname = demo\nseed = 5\nout_dir = /tmp/x\n"
      "[job a]\nkind = gen-traces\n"
      "[job b]\nkind = replay\nafter = a\ntraces = a\n");
  EXPECT_EQ(c.name, "demo");
  EXPECT_EQ(c.seed, 5u);
  EXPECT_EQ(c.out_dir, "/tmp/x");
  ASSERT_EQ(c.jobs.size(), 2u);
  ASSERT_EQ(c.jobs[1].after.size(), 1u);
  EXPECT_EQ(c.jobs[1].after[0], "a");
}

TEST(Campaign, RejectsMissingHeaderKindUnknownDepAndDuplicates) {
  EXPECT_THROW(campaign_from("[job a]\nkind = replay\n"), std::runtime_error);
  EXPECT_THROW(campaign_from("[campaign]\nname = x\n[job a]\ncount = 1\n"),
               std::runtime_error);
  EXPECT_THROW(campaign_from("[campaign]\nname = x\n"
                             "[job a]\nkind = replay\nafter = ghost\n"),
               std::runtime_error);
  EXPECT_THROW(campaign_from("[campaign]\nname = x\n"
                             "[job a]\nkind = replay\n"
                             "[job a]\nkind = replay\n"),
               std::runtime_error);
}

TEST(Campaign, RejectsCycles) {
  EXPECT_THROW(campaign_from("[campaign]\nname = x\n"
                             "[job a]\nkind = replay\nafter = b\n"
                             "[job b]\nkind = replay\nafter = a\n"),
               std::runtime_error);
  EXPECT_THROW(campaign_from("[campaign]\nname = x\n"
                             "[job a]\nkind = replay\nafter = a\n"),
               std::runtime_error);
}

TEST(Campaign, GridExpandsPpoPairsAndCemSingles) {
  const exp::Campaign c = campaign_from(
      "[campaign]\nname = x\nout_dir = /tmp/x\n"
      "[job sweep]\nkind = grid\nprotocols = bb, mpc\n"
      "adversaries = ppo, cem\nseeds = 3\ncount = 9\n");
  // 2 protocols x (ppo -> 2 jobs, cem -> 1 job) x 1 seed.
  ASSERT_EQ(c.jobs.size(), 6u);
  const std::size_t train = c.job_index("sweep-bb-ppo-s3-train");
  const std::size_t record = c.job_index("sweep-bb-ppo-s3");
  const std::size_t cem = c.job_index("sweep-mpc-cem-s3");
  ASSERT_NE(train, static_cast<std::size_t>(-1));
  ASSERT_NE(record, static_cast<std::size_t>(-1));
  ASSERT_NE(cem, static_cast<std::size_t>(-1));
  EXPECT_EQ(c.jobs[train].kind, "train-adversary");
  EXPECT_EQ(c.jobs[train].seed, 3u);
  EXPECT_EQ(c.jobs[record].value_or("from", ""), "sweep-bb-ppo-s3-train");
  ASSERT_EQ(c.jobs[record].after.size(), 1u);
  EXPECT_EQ(c.jobs[record].after[0], "sweep-bb-ppo-s3-train");
  EXPECT_EQ(c.jobs[cem].value_or("adversary", ""), "cem");
  // Shared params forward to every point.
  EXPECT_EQ(c.jobs[record].value_or("count", ""), "9");
}

TEST(Campaign, GridIdResolvesAsDependencyGroup) {
  const exp::Campaign c = campaign_from(
      "[campaign]\nname = x\nout_dir = /tmp/x\n"
      "[job sweep]\nkind = grid\nprotocols = bb\nadversaries = cem\n"
      "[job summarize]\nkind = replay\nafter = sweep\ntraces = sweep-bb-cem\n");
  const std::size_t s = c.job_index("summarize");
  ASSERT_EQ(c.jobs[s].after.size(), 1u);
  EXPECT_EQ(c.jobs[s].after[0], "sweep-bb-cem");
}

TEST(Campaign, GridNeedsExactlyOneSweepAxis) {
  EXPECT_THROW(campaign_from("[campaign]\nname = x\n"
                             "[job g]\nkind = grid\nprotocols = bb\n"),
               std::runtime_error);
  EXPECT_THROW(
      campaign_from("[campaign]\nname = x\n"
                    "[job g]\nkind = grid\nprotocols = bb\n"
                    "adversaries = cem\ntrace_sets = t\n"),
      std::runtime_error);
}

// Grids are validated against the live core:: registries at load time, so a
// typo fails with the real name list before any job runs.
TEST(Campaign, GridValidatesNamesAgainstTheLiveRegistries) {
  try {
    campaign_from("[campaign]\nname = x\nout_dir = /tmp/x\n"
                  "[job g]\nkind = grid\nprotocols = bb, warp\n"
                  "adversaries = ppo\n");
    FAIL() << "unknown protocol must fail at load time";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("unknown protocol 'warp'"), std::string::npos) << what;
    EXPECT_NE(what.find("pensieve"), std::string::npos)
        << "error should enumerate the registry: " << what;
  }
  // domain = cc resolves names against the sender registry instead...
  EXPECT_THROW(campaign_from("[campaign]\nname = x\nout_dir = /tmp/x\n"
                             "[job g]\nkind = grid\ndomain = cc\n"
                             "protocols = bb\nadversaries = ppo\n"),
               std::runtime_error);
  // ...and rejects the ABR-only CEM adversary up front.
  try {
    campaign_from("[campaign]\nname = x\nout_dir = /tmp/x\n"
                  "[job g]\nkind = grid\ndomain = cc\n"
                  "protocols = bbr\nadversaries = cem\n");
    FAIL() << "cem in a cc grid must fail at load time";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string{e.what()}.find("abr-only"), std::string::npos)
        << e.what();
  }
}

TEST(Campaign, GridExpandsCcSweepsAndForwardsDomain) {
  const exp::Campaign c = campaign_from(
      "[campaign]\nname = x\nout_dir = /tmp/x\n"
      "[job sweep]\nkind = grid\ndomain = cc\n"
      "protocols = bbr, vivace\nadversaries = ppo\nseeds = 1\n");
  // 2 senders x (ppo -> train + record) x 1 seed.
  ASSERT_EQ(c.jobs.size(), 4u);
  const std::size_t train = c.job_index("sweep-bbr-ppo-s1-train");
  const std::size_t record = c.job_index("sweep-bbr-ppo-s1");
  ASSERT_NE(train, static_cast<std::size_t>(-1));
  ASSERT_NE(record, static_cast<std::size_t>(-1));
  // `domain` forwards to every expanded point so the job executors pick the
  // CC stack.
  EXPECT_EQ(c.jobs[train].value_or("domain", ""), "cc");
  EXPECT_EQ(c.jobs[record].value_or("domain", ""), "cc");
}

TEST(Campaign, GridExpandsQoeServingSweeps) {
  const exp::Campaign c = campaign_from(
      "[campaign]\nname = x\nout_dir = /tmp/x\n"
      "[job corpus]\nkind = gen-traces\ngenerator = fcc\ncount = 4\n"
      "[job sweep]\nkind = grid\nprotocols = bb, mpc-dp\n"
      "qoe_models = lin, ssim\ntrace_sets = corpus\nseeds = 1, 2\n"
      "sessions = 32\n");
  // corpus + 2 protocols x 2 models x 1 set x 2 seeds.
  ASSERT_EQ(c.jobs.size(), 9u);
  const std::size_t serve = c.job_index("sweep-mpc-dp-ssim-on-corpus-s2");
  ASSERT_NE(serve, static_cast<std::size_t>(-1));
  EXPECT_EQ(c.jobs[serve].kind, "serve");
  EXPECT_EQ(c.jobs[serve].value_or("protocol", ""), "mpc-dp");
  EXPECT_EQ(c.jobs[serve].value_or("qoe", ""), "ssim");
  EXPECT_EQ(c.jobs[serve].value_or("traces", ""), "corpus");
  EXPECT_EQ(c.jobs[serve].seed, 2u);
  // Shared params forward to every point.
  EXPECT_EQ(c.jobs[serve].value_or("sessions", ""), "32");
  ASSERT_EQ(c.jobs[serve].after.size(), 1u);
  EXPECT_EQ(c.jobs[serve].after[0], "corpus");
}

TEST(Campaign, GridValidatesQoeModelsAtLoadTime) {
  // Unknown model names fail with the registry's enumerating error...
  try {
    campaign_from("[campaign]\nname = x\nout_dir = /tmp/x\n"
                  "[job t]\nkind = gen-traces\ngenerator = fcc\n"
                  "[job g]\nkind = grid\nprotocols = bb\n"
                  "qoe_models = vmaf\ntrace_sets = t\n");
    FAIL() << "unknown qoe model must fail at load time";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("unknown qoe model 'vmaf'"), std::string::npos)
        << what;
    EXPECT_NE(what.find("lin | log | ssim"), std::string::npos) << what;
  }
  // ...a serving sweep needs traces to serve...
  EXPECT_THROW(
      campaign_from("[campaign]\nname = x\nout_dir = /tmp/x\n"
                    "[job g]\nkind = grid\nprotocols = bb\n"
                    "qoe_models = lin\n"),
      std::runtime_error);
  // ...and flow mixes are cc-side: no QoE model applies.
  EXPECT_THROW(
      campaign_from("[campaign]\nname = x\nout_dir = /tmp/x\n"
                    "[job t]\nkind = gen-traces\ngenerator = fcc\n"
                    "[job g]\nkind = grid\nflow_mixes = bbr+cubic\n"
                    "qoe_models = lin\ntrace_sets = t\ndomain = cc\n"),
      std::runtime_error);
}

TEST(Campaign, SeedsAreDeterministicAndOverridable) {
  const exp::Campaign c = campaign_from(
      "[campaign]\nname = x\nseed = 9\nout_dir = /tmp/x\n"
      "[job a]\nkind = replay\n"
      "[job b]\nkind = replay\nseed = 1234\n");
  const std::vector<std::uint64_t> first = exp::resolve_job_seeds(c);
  const std::vector<std::uint64_t> second = exp::resolve_job_seeds(c);
  EXPECT_EQ(first, second);
  EXPECT_EQ(first[1], 1234u);
  EXPECT_NE(first[0], first[1]);
}

TEST(Campaign, ParamsHashIgnoresSpellingOrderButNotValues) {
  const exp::Campaign a = campaign_from(
      "[campaign]\nname = x\nout_dir = /tmp/x\n"
      "[job j]\nkind = replay\nalpha = 1\nbeta = 2\n");
  const exp::Campaign b = campaign_from(
      "[campaign]\nname = x\nout_dir = /tmp/x\n"
      "[job j]\nkind = replay\nbeta = 2\nalpha = 1\n");
  const exp::Campaign c = campaign_from(
      "[campaign]\nname = x\nout_dir = /tmp/x\n"
      "[job j]\nkind = replay\nbeta = 2\nalpha = 9\n");
  EXPECT_EQ(exp::job_params_hash(a, a.jobs[0], 7),
            exp::job_params_hash(b, b.jobs[0], 7));
  EXPECT_NE(exp::job_params_hash(a, a.jobs[0], 7),
            exp::job_params_hash(c, c.jobs[0], 7));
  EXPECT_NE(exp::job_params_hash(a, a.jobs[0], 7),
            exp::job_params_hash(a, a.jobs[0], 8));
}

TEST(Campaign, WavesFollowDependencies) {
  const exp::Campaign c = campaign_from(
      "[campaign]\nname = x\nout_dir = /tmp/x\n"
      "[job a]\nkind = replay\n"
      "[job b]\nkind = replay\n"
      "[job c]\nkind = replay\nafter = a, b\n");
  const auto waves = exp::topological_waves(c);
  ASSERT_EQ(waves.size(), 2u);
  EXPECT_EQ(waves[0].size(), 2u);
  ASSERT_EQ(waves[1].size(), 1u);
  EXPECT_EQ(c.jobs[waves[1][0]].id, "c");
}

// ---------------------------------------------------------------- manifest

TEST(Manifest, RoundTripsAndSkipsTornLines) {
  const std::string dir = temp_dir("netadv_manifest_test");
  std::filesystem::create_directories(dir);
  const std::string path = exp::manifest_path(dir);
  {
    exp::ManifestWriter writer{path};
    exp::ManifestEntry entry;
    entry.campaign = "c";
    entry.job = "j";
    entry.kind = "replay";
    entry.status = "completed";
    entry.params_hash = "aaaa";
    entry.inputs_hash = "bbbb";
    entry.seconds = 1.5;
    entry.threads = 4;
    entry.scale = 0.01;
    entry.artifacts = {dir + "/x.csv", dir + "/y.csv"};
    writer.append(entry);
  }
  // Simulate a kill mid-append: a torn trailing line.
  {
    std::ofstream out{path, std::ios::app};
    out << "c,j2,replay,comp";
  }
  const std::vector<exp::ManifestEntry> entries = exp::read_manifest(path);
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].job, "j");
  EXPECT_EQ(entries[0].status, "completed");
  EXPECT_EQ(entries[0].params_hash, "aaaa");
  EXPECT_EQ(entries[0].threads, 4u);
  ASSERT_EQ(entries[0].artifacts.size(), 2u);
  EXPECT_EQ(entries[0].artifacts[1], dir + "/y.csv");
}

TEST(Manifest, MissingFileReadsEmpty) {
  EXPECT_TRUE(exp::read_manifest("/tmp/netadv_no_such_manifest.csv").empty());
}

// ---------------------------------------------------------------- scheduler

// A fast stub registry: `emit` writes its seed to its artifact; `concat`
// concatenates its dependencies' artifacts; `boom` always throws.
exp::JobRegistry stub_registry() {
  exp::JobRegistry registry;
  registry.add("emit", [](const exp::JobContext& ctx) {
    exp::JobResult r;
    r.artifacts.push_back(ctx.artifact("_out.txt"));
    std::ofstream{r.artifacts.back()} << ctx.job->id << ":" << ctx.seed;
    return r;
  });
  registry.add("concat", [](const exp::JobContext& ctx) {
    exp::JobResult r;
    r.artifacts.push_back(ctx.artifact("_out.txt"));
    std::ofstream out{r.artifacts.back()};
    for (const auto& [dep, artifacts] : ctx.inputs) {
      for (const auto& path : artifacts) out << read_file(path) << "\n";
    }
    return r;
  });
  registry.add("boom", [](const exp::JobContext&) -> exp::JobResult {
    throw std::runtime_error{"kaboom"};
  });
  return registry;
}

const char* kDiamondSpec =
    "[campaign]\nname = diamond\nseed = 11\nout_dir = %s\n"
    "[job left]\nkind = emit\n"
    "[job right]\nkind = emit\n"
    "[job join]\nkind = concat\nafter = left, right\n";

exp::Campaign diamond(const std::string& out_dir) {
  char text[512];
  std::snprintf(text, sizeof text, kDiamondSpec, out_dir.c_str());
  return campaign_from(text);
}

TEST(Scheduler, RunsDagAndRecordsManifest) {
  const std::string dir = temp_dir("netadv_sched_basic");
  const exp::CampaignReport report =
      exp::run_campaign(diamond(dir), stub_registry());
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.completed, 3u);
  EXPECT_EQ(report.outcome_of("join").status, "completed");
  const std::string joined = read_file(dir + "/join_out.txt");
  EXPECT_NE(joined.find("left:"), std::string::npos);
  EXPECT_NE(joined.find("right:"), std::string::npos);
  const auto entries = exp::read_manifest(exp::manifest_path(dir));
  ASSERT_EQ(entries.size(), 3u);
  for (const auto& entry : entries) EXPECT_EQ(entry.status, "completed");
}

TEST(Scheduler, ArtifactsAreIdenticalAcrossThreadCounts) {
  const std::string seq_dir = temp_dir("netadv_sched_seq");
  const std::string par_dir = temp_dir("netadv_sched_par");
  exp::run_campaign(diamond(seq_dir), stub_registry());
  util::ThreadPool pool{4};
  exp::SchedulerOptions options;
  options.pool = &pool;
  exp::run_campaign(diamond(par_dir), stub_registry(), options);
  for (const char* name : {"left_out.txt", "right_out.txt", "join_out.txt"}) {
    EXPECT_EQ(read_file(seq_dir + "/" + name), read_file(par_dir + "/" + name))
        << name;
  }
}

TEST(Scheduler, FailureBlocksDependentsAndSurvivorsComplete) {
  const std::string dir = temp_dir("netadv_sched_fail");
  const exp::Campaign c = campaign_from(
      "[campaign]\nname = f\nout_dir = " + dir + "\n"
      "[job ok]\nkind = emit\n"
      "[job bad]\nkind = boom\n"
      "[job downstream]\nkind = concat\nafter = bad\n");
  const exp::CampaignReport report = exp::run_campaign(c, stub_registry());
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(report.completed, 1u);
  EXPECT_EQ(report.failed, 1u);
  EXPECT_EQ(report.blocked, 1u);
  EXPECT_EQ(report.outcome_of("bad").status, "failed");
  EXPECT_NE(report.outcome_of("bad").error.find("kaboom"), std::string::npos);
  EXPECT_EQ(report.outcome_of("downstream").status, "blocked");
}

TEST(Scheduler, ResumeSkipsCompletedJobs) {
  const std::string dir = temp_dir("netadv_sched_resume");
  exp::run_campaign(diamond(dir), stub_registry());
  exp::SchedulerOptions options;
  options.resume = true;
  const exp::CampaignReport second =
      exp::run_campaign(diamond(dir), stub_registry(), options);
  EXPECT_EQ(second.completed, 0u);
  EXPECT_EQ(second.skipped, 3u);
}

TEST(Scheduler, ResumeRerunsWhenArtifactMissingOrParamsChange) {
  const std::string dir = temp_dir("netadv_sched_invalidate");
  exp::run_campaign(diamond(dir), stub_registry());

  // Deleting an artifact forces that job (and, through the recomputed
  // inputs hash staying equal, only that job) to re-run.
  std::filesystem::remove(dir + "/left_out.txt");
  exp::SchedulerOptions options;
  options.resume = true;
  const exp::CampaignReport after_delete =
      exp::run_campaign(diamond(dir), stub_registry(), options);
  EXPECT_EQ(after_delete.outcome_of("left").status, "completed");
  EXPECT_EQ(after_delete.outcome_of("right").status, "skipped-cached");
  EXPECT_EQ(after_delete.outcome_of("join").status, "skipped-cached");

  // A changed param (here: the campaign seed changes every derived job seed)
  // invalidates everything.
  char text[512];
  std::snprintf(text, sizeof text, kDiamondSpec, dir.c_str());
  std::string reseeded{text};
  const std::size_t pos = reseeded.find("seed = 11");
  reseeded.replace(pos, 9, "seed = 12");
  const exp::CampaignReport after_reseed =
      exp::run_campaign(campaign_from(reseeded), stub_registry(), options);
  EXPECT_EQ(after_reseed.completed, 3u);
  EXPECT_EQ(after_reseed.skipped, 0u);
}

TEST(Scheduler, ResumeRerunsDependentsWhenInputsChange) {
  const std::string dir = temp_dir("netadv_sched_inputs");
  exp::run_campaign(diamond(dir), stub_registry());
  // Tamper with a dependency's artifact: join's inputs hash changes, so it
  // re-runs even though its own params did not move.
  std::ofstream{dir + "/left_out.txt"} << "tampered";
  exp::SchedulerOptions options;
  options.resume = true;
  const exp::CampaignReport report =
      exp::run_campaign(diamond(dir), stub_registry(), options);
  EXPECT_EQ(report.outcome_of("left").status, "skipped-cached");
  EXPECT_EQ(report.outcome_of("join").status, "completed");
  EXPECT_NE(read_file(dir + "/join_out.txt").find("tampered"),
            std::string::npos);
}

TEST(Scheduler, UnknownKindIsACampaignLevelError) {
  const std::string dir = temp_dir("netadv_sched_unknown");
  const exp::Campaign c = campaign_from(
      "[campaign]\nname = u\nout_dir = " + dir + "\n"
      "[job a]\nkind = no-such-kind\n");
  EXPECT_THROW(exp::run_campaign(c, stub_registry()), std::runtime_error);
}

TEST(Scheduler, FormatPlanListsWavesAndResumeState) {
  const std::string dir = temp_dir("netadv_sched_plan");
  const std::string plan = exp::format_plan(diamond(dir));
  EXPECT_NE(plan.find("wave 1"), std::string::npos);
  EXPECT_NE(plan.find("wave 2"), std::string::npos);
  EXPECT_NE(plan.find("join"), std::string::npos);
  exp::run_campaign(diamond(dir), stub_registry());
  const std::string resumed = exp::format_plan(diamond(dir), true);
  EXPECT_NE(resumed.find("cached if inputs match"), std::string::npos);
}

// ------------------------------------------------- builtin-job integration

TEST(BuiltinJobs, GenReplayPipelineProducesQoePerTrace) {
  const std::string dir = temp_dir("netadv_builtin_smoke");
  const exp::Campaign c = campaign_from(
      "[campaign]\nname = smoke\nseed = 3\nout_dir = " + dir + "\n"
      "[job corpus]\nkind = gen-traces\ngenerator = random\ncount = 3\n"
      "[job replay-bb]\nkind = replay\nafter = corpus\n"
      "traces = corpus\nprotocol = bb\n");
  const exp::CampaignReport report =
      exp::run_campaign(c, exp::builtin_jobs());
  ASSERT_TRUE(report.ok());
  const std::vector<trace::Trace> traces =
      trace::load_trace_set(dir + "/corpus_traces.csv");
  EXPECT_GE(traces.size(), 2u);
  const std::string qoe = read_file(dir + "/replay-bb_qoe.csv");
  EXPECT_NE(qoe.find("trace,qoe"), std::string::npos);
}

TEST(BuiltinJobs, FullDiskFailsTheJobNamingItsArtifact) {
  // The replay's CSV lands on /dev/full (a full disk): the job must fail
  // with an error naming the file, not complete with a truncated artifact.
  if (!std::filesystem::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  const std::string dir = temp_dir("netadv_builtin_full_disk");
  std::filesystem::create_directories(dir);
  std::filesystem::create_symlink("/dev/full", dir + "/replay-bb_qoe.csv");
  const exp::Campaign c = campaign_from(
      "[campaign]\nname = full\nseed = 3\nout_dir = " + dir + "\n"
      "[job corpus]\nkind = gen-traces\ngenerator = random\ncount = 3\n"
      "[job replay-bb]\nkind = replay\nafter = corpus\n"
      "traces = corpus\nprotocol = bb\n");
  const exp::CampaignReport report =
      exp::run_campaign(c, exp::builtin_jobs());
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(report.outcome_of("corpus").status, "completed");
  const exp::JobOutcome& replay = report.outcome_of("replay-bb");
  EXPECT_EQ(replay.status, "failed");
  EXPECT_NE(replay.error.find("replay-bb_qoe.csv"), std::string::npos)
      << replay.error;
  std::filesystem::remove_all(dir);
}

/// gen-traces feeding a qoe_models serving grid: the campaign-level route
/// into serve::SessionEngine.
std::string serve_pipeline_spec(const std::string& dir) {
  return "[campaign]\nname = serve-e2e\nseed = 5\nout_dir = " + dir + "\n"
         "[job corpus]\nkind = gen-traces\ngenerator = fcc\ncount = 3\n"
         "[job sweep]\nkind = grid\nprotocols = bb, mpc-dp\n"
         "qoe_models = lin, ssim\ntrace_sets = corpus\nsessions = 6\n";
}

TEST(BuiltinJobs, ServeCampaignRunsEndToEnd) {
  const std::string dir = temp_dir("netadv_builtin_serve");
  const exp::CampaignReport report = exp::run_campaign(
      campaign_from(serve_pipeline_spec(dir)), exp::builtin_jobs());
  ASSERT_TRUE(report.ok());
  for (const char* name :
       {"sweep-bb-lin-on-corpus", "sweep-bb-ssim-on-corpus",
        "sweep-mpc-dp-lin-on-corpus", "sweep-mpc-dp-ssim-on-corpus"}) {
    const std::string csv =
        read_file(dir + "/" + std::string{name} + "_sessions.csv");
    EXPECT_NE(csv.find("session,trace,chunks,qoe,qoe_lin"), std::string::npos)
        << name;
    // Throughput numbers live in the note, never in the artifact.
    EXPECT_NE(report.outcome_of(name).result.note.find("decisions/s"),
              std::string::npos)
        << name;
  }
}

/// Every artifact a campaign left in `dir`, keyed by file name. The manifest
/// is left out: it records wall-clock.
std::map<std::string, std::string> artifacts_in(const std::string& dir) {
  std::map<std::string, std::string> artifacts;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (entry.is_regular_file() && name != exp::kManifestFilename) {
      artifacts[name] = read_file(entry.path().string());
    }
  }
  return artifacts;
}

/// The determinism contract for builtin jobs: the campaign `spec(dir)` run
/// without a pool and on pools of 2 and 8 threads writes the same artifacts,
/// byte for byte. `tag` names the scratch out_dirs.
void expect_artifacts_identical_across_thread_counts(
    const std::function<std::string(const std::string&)>& spec,
    const std::string& tag) {
  const std::string base = temp_dir(tag + "_t1");
  ASSERT_TRUE(
      exp::run_campaign(campaign_from(spec(base)), exp::builtin_jobs()).ok());
  const auto reference = artifacts_in(base);
  for (const std::size_t threads : {2u, 8u}) {
    const std::string dir = temp_dir(tag + "_t" + std::to_string(threads));
    util::ThreadPool pool{threads};
    exp::SchedulerOptions options;
    options.pool = &pool;
    ASSERT_TRUE(exp::run_campaign(campaign_from(spec(dir)),
                                  exp::builtin_jobs(), options)
                    .ok());
    const auto artifacts = artifacts_in(dir);
    EXPECT_EQ(artifacts.size(), reference.size()) << "at " << threads
                                                  << " threads";
    for (const auto& [name, bytes] : reference) {
      const auto it = artifacts.find(name);
      ASSERT_NE(it, artifacts.end())
          << name << " missing at " << threads << " threads";
      EXPECT_TRUE(it->second == bytes)
          << name << " differs at " << threads << " threads";
    }
  }
}

TEST(BuiltinJobs, ServeArtifactsAreIdenticalAcrossThreadCounts) {
  expect_artifacts_identical_across_thread_counts(serve_pipeline_spec,
                                                  "netadv_builtin_serve");
}

/// Two random corpora replayed against a buffer-based and a RobustMPC
/// client: the builtin gen-traces -> replay path of the ABR domain.
std::string abr_replay_spec(const std::string& dir) {
  return "[campaign]\nname = abr-replay\nseed = 5\nout_dir = " + dir + "\n"
         "[job gen-a]\nkind = gen-traces\ngenerator = random\ncount = 12\n"
         "[job gen-b]\nkind = gen-traces\ngenerator = random\ncount = 12\n"
         "[job replay-a]\nkind = replay\nafter = gen-a\ntraces = gen-a\n"
         "protocol = bb\n"
         "[job replay-b]\nkind = replay\nafter = gen-b\ntraces = gen-b\n"
         "protocol = mpc\n";
}

TEST(BuiltinJobs, AbrReplayArtifactsAreIdenticalAcrossThreadCounts) {
  expect_artifacts_identical_across_thread_counts(abr_replay_spec,
                                                  "netadv_builtin_abr_replay");
}

TEST(BuiltinJobs, ServeJobFailsWithEnumeratingErrors) {
  // Unknown QoE model: the job fails with the registry's enumerating error
  // before any artifact exists.
  const std::string dir = temp_dir("netadv_builtin_serve_bad");
  const exp::Campaign c = campaign_from(
      "[campaign]\nname = bad\nout_dir = " + dir + "\n"
      "[job corpus]\nkind = gen-traces\ngenerator = fcc\ncount = 2\n"
      "[job s]\nkind = serve\nafter = corpus\ntraces = corpus\n"
      "protocol = bb\nqoe = vmaf\nsessions = 4\n");
  const exp::CampaignReport report = exp::run_campaign(c, exp::builtin_jobs());
  EXPECT_FALSE(report.ok());
  const std::string& error = report.outcome_of("s").error;
  EXPECT_NE(error.find("unknown qoe model 'vmaf'"), std::string::npos)
      << error;
  EXPECT_NE(error.find("lin | log | ssim"), std::string::npos) << error;
  EXPECT_FALSE(std::filesystem::exists(dir + "/s_sessions.csv"));

  // No trace source at all: the error names both accepted spellings.
  const std::string dir2 = temp_dir("netadv_builtin_serve_notraces");
  const exp::CampaignReport report2 = exp::run_campaign(
      campaign_from("[campaign]\nname = bad2\nout_dir = " + dir2 + "\n"
                    "[job s]\nkind = serve\nprotocol = bb\nsessions = 4\n"),
      exp::builtin_jobs());
  EXPECT_FALSE(report2.ok());
  EXPECT_NE(report2.outcome_of("s").error.find("trace_file"),
            std::string::npos)
      << report2.outcome_of("s").error;
}

// A bad target name must fail the job before any artifact exists (the
// factory is resolved once, up front — not once per trace mid-CSV), and the
// error must enumerate the live registry, not a hand-maintained list.
TEST(BuiltinJobs, UnknownTargetFailsBeforeAnyArtifactIsWritten) {
  const std::string dir = temp_dir("netadv_builtin_unknown");
  const exp::Campaign c = campaign_from(
      "[campaign]\nname = bad\nout_dir = " + dir + "\n"
      "[job rec]\nkind = record-traces\nadversary = cem\nprotocol = warp\n"
      "count = 2\n");
  const exp::CampaignReport report = exp::run_campaign(c, exp::builtin_jobs());
  EXPECT_FALSE(report.ok());
  const std::string& error = report.outcome_of("rec").error;
  EXPECT_NE(error.find("unknown protocol 'warp'"), std::string::npos);
  EXPECT_NE(error.find("bb | bola | mpc | mpc-dp | throughput | pensieve"),
            std::string::npos)
      << error;
  EXPECT_FALSE(std::filesystem::exists(dir + "/rec_traces.csv"));
  EXPECT_FALSE(std::filesystem::exists(dir + "/rec_summary.csv"));
}

// ------------------------------------------------- domain = cc campaigns

/// The full CC pipeline: train a PPO adversary against cubic, record
/// episodes through its checkpoint, replay the recorded link schedules
/// against BBR. `duration = 2` keeps episodes to ~66 epochs.
std::string cc_pipeline_spec(const std::string& dir) {
  return "[campaign]\nname = cc-e2e\nseed = 41\nout_dir = " + dir + "\n"
         "[job train]\nkind = train-adversary\ndomain = cc\n"
         "protocol = cubic\nsteps = 256\nduration = 2\n"
         "[job rec]\nkind = record-traces\nafter = train\nfrom = train\n"
         "domain = cc\nprotocol = cubic\ncount = 2\nduration = 2\n"
         "[job rep]\nkind = replay\nafter = rec\ntraces = rec\n"
         "domain = cc\nprotocol = bbr\n";
}

TEST(BuiltinJobs, CcCampaignRunsEndToEnd) {
  const std::string dir = temp_dir("netadv_builtin_cc");
  const exp::CampaignReport report = exp::run_campaign(
      campaign_from(cc_pipeline_spec(dir)), exp::builtin_jobs());
  ASSERT_TRUE(report.ok());
  const std::vector<trace::Trace> traces =
      trace::load_trace_set(dir + "/rec_traces.csv");
  ASSERT_EQ(traces.size(), 2u);
  // Recorded link schedules are per-epoch (duration / epoch_s segments).
  EXPECT_GE(traces[0].size(), 50u);
  EXPECT_NE(read_file(dir + "/rec_summary.csv").find("trace,mean_utilization"),
            std::string::npos);
  EXPECT_NE(read_file(dir + "/rep_replay.csv")
                .find("trace,utilization,throughput_mbps"),
            std::string::npos);
}

// A replay's `stagger =` offsets flow i's start by i * stagger: a negative
// one would start flows before t = 0, so the job fails naming the param
// (the strict number parser refuses the sign before core::replay_cc_traces
// would refuse the value) and writes nothing.
TEST(BuiltinJobs, ReplayRejectsANegativeStagger) {
  const std::string dir = temp_dir("netadv_builtin_replay_stagger");
  const exp::CampaignReport report = exp::run_campaign(
      campaign_from("[campaign]\nname = stagger\nout_dir = " + dir + "\n"
                    "[job corpus]\nkind = gen-traces\ngenerator = random\n"
                    "count = 2\n"
                    "[job rep]\nkind = replay\nafter = corpus\n"
                    "traces = corpus\ndomain = cc\nflows = bbr,cubic\n"
                    "stagger = -1\n"),
      exp::builtin_jobs());
  EXPECT_FALSE(report.ok());
  const std::string& error = report.outcome_of("rep").error;
  EXPECT_NE(error.find("job 'rep' (replay): stagger must be a finite number "
                       "without a sign: '-1'"),
            std::string::npos)
      << error;
  EXPECT_FALSE(std::filesystem::exists(dir + "/rep_replay.csv"));
}

// The determinism contract extends to the CC job kinds: every artifact in
// the pipeline is bit-identical at NETADV_THREADS in {1, 2, 8}.
TEST(BuiltinJobs, CcCampaignArtifactsAreIdenticalAcrossThreadCounts) {
  expect_artifacts_identical_across_thread_counts(cc_pipeline_spec,
                                                  "netadv_builtin_cc");
}

// ------------------------------------------------- fairness campaigns

TEST(Campaign, GridExpandsFlowMixFairnessSweeps) {
  const exp::Campaign c = campaign_from(
      "[campaign]\nname = x\nout_dir = /tmp/x\n"
      "[job sweep]\nkind = grid\ndomain = cc\n"
      "flow_mixes = bbr+cubic, bbr+bbr\n"
      "adversaries = fairness, late-join\nseeds = 1\ncount = 4\n");
  // 2 mixes x 2 fairness kinds x (train + record) x 1 seed.
  ASSERT_EQ(c.jobs.size(), 8u);
  const std::size_t train = c.job_index("sweep-bbr+cubic-fairness-s1-train");
  const std::size_t record = c.job_index("sweep-bbr+cubic-fairness-s1");
  const std::size_t late = c.job_index("sweep-bbr+bbr-late-join-s1");
  ASSERT_NE(train, static_cast<std::size_t>(-1));
  ASSERT_NE(record, static_cast<std::size_t>(-1));
  ASSERT_NE(late, static_cast<std::size_t>(-1));
  EXPECT_EQ(c.jobs[train].kind, "train-adversary");
  // The '+'-joined mix element becomes the job-level flows list, and the
  // scenario kind rides along as `adversary =`.
  EXPECT_EQ(c.jobs[train].value_or("flows", ""), "bbr,cubic");
  EXPECT_EQ(c.jobs[train].value_or("adversary", ""), "fairness");
  EXPECT_EQ(c.jobs[record].value_or("from", ""),
            "sweep-bbr+cubic-fairness-s1-train");
  EXPECT_EQ(c.jobs[late].value_or("adversary", ""), "late-join");
  // Shared params forward to every point.
  EXPECT_EQ(c.jobs[record].value_or("count", ""), "4");
}

TEST(Campaign, GridValidatesFlowMixesAtLoadTime) {
  // Unknown mix member fails with the sender registry's enumerating error.
  try {
    campaign_from("[campaign]\nname = x\nout_dir = /tmp/x\n"
                  "[job g]\nkind = grid\ndomain = cc\n"
                  "flow_mixes = bbr+warp\nadversaries = fairness\n");
    FAIL() << "unknown mix member must fail at load time";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("unknown sender 'warp'"), std::string::npos) << what;
    EXPECT_NE(what.find("bbr | cubic | copa | vivace | reno"),
              std::string::npos)
        << what;
  }
  // A mix needs at least two flows.
  EXPECT_THROW(campaign_from("[campaign]\nname = x\nout_dir = /tmp/x\n"
                             "[job g]\nkind = grid\ndomain = cc\n"
                             "flow_mixes = bbr\nadversaries = fairness\n"),
               std::runtime_error);
  // flow_mixes is a cc concept.
  EXPECT_THROW(campaign_from("[campaign]\nname = x\nout_dir = /tmp/x\n"
                             "[job g]\nkind = grid\n"
                             "flow_mixes = bbr+cubic\nadversaries = ppo\n"),
               std::runtime_error);
  // Fairness kinds attack mixes, ppo attacks single targets: each axis
  // rejects the other family.
  EXPECT_THROW(
      campaign_from("[campaign]\nname = x\nout_dir = /tmp/x\n"
                    "[job g]\nkind = grid\ndomain = cc\n"
                    "flow_mixes = bbr+cubic\nadversaries = ppo\n"),
      std::runtime_error);
  EXPECT_THROW(
      campaign_from("[campaign]\nname = x\nout_dir = /tmp/x\n"
                    "[job g]\nkind = grid\ndomain = cc\n"
                    "protocols = bbr\nadversaries = fairness\n"),
      std::runtime_error);
  // protocols and flow_mixes are mutually exclusive target axes.
  EXPECT_THROW(
      campaign_from("[campaign]\nname = x\nout_dir = /tmp/x\n"
                    "[job g]\nkind = grid\ndomain = cc\nprotocols = bbr\n"
                    "flow_mixes = bbr+cubic\nadversaries = fairness\n"),
      std::runtime_error);
}

/// The full fairness pipeline: train a fairness adversary on a bbr+cubic
/// mix, record episodes through its checkpoint, replay the recorded link
/// schedules against a different mix. `duration = 2` bounds work.
std::string fairness_pipeline_spec(const std::string& dir) {
  return "[campaign]\nname = fairness-e2e\nseed = 43\nout_dir = " + dir +
         "\n"
         "[job train]\nkind = train-adversary\ndomain = cc\n"
         "adversary = fairness\nflows = bbr,cubic\nsteps = 256\n"
         "duration = 2\n"
         "[job rec]\nkind = record-traces\nafter = train\nfrom = train\n"
         "domain = cc\nadversary = fairness\nflows = bbr,cubic\n"
         "count = 2\nduration = 2\n"
         "[job rep]\nkind = replay\nafter = rec\ntraces = rec\n"
         "domain = cc\nflows = bbr,bbr\n";
}

TEST(BuiltinJobs, FairnessCampaignRunsEndToEnd) {
  const std::string dir = temp_dir("netadv_builtin_fair");
  const exp::CampaignReport report = exp::run_campaign(
      campaign_from(fairness_pipeline_spec(dir)), exp::builtin_jobs());
  ASSERT_TRUE(report.ok());
  const std::vector<trace::Trace> traces =
      trace::load_trace_set(dir + "/rec_traces.csv");
  ASSERT_EQ(traces.size(), 2u);
  EXPECT_GE(traces[0].size(), 50u);
  // Summaries carry per-flow throughput plus both unfairness metrics.
  EXPECT_NE(
      read_file(dir + "/rec_summary.csv")
          .find("episode,flow0_mbps,flow1_mbps,jain,victim_utilization,"
                "aggregate_utilization"),
      std::string::npos);
  EXPECT_NE(
      read_file(dir + "/rep_replay.csv")
          .find("trace,flow0_mbps,flow1_mbps,jain,victim_utilization,"
                "aggregate_utilization"),
      std::string::npos);
}

TEST(BuiltinJobs, FairnessJobsFailWithEnumeratingErrors) {
  const std::string dir = temp_dir("netadv_builtin_fair_err");
  // Unknown flow-mix member surfaces the cc_senders registry error.
  const exp::CampaignReport report = exp::run_campaign(
      campaign_from("[campaign]\nname = bad-mix\nout_dir = " + dir + "\n"
                    "[job train]\nkind = train-adversary\ndomain = cc\n"
                    "adversary = fairness\nflows = bbr,warp\nsteps = 256\n"
                    "duration = 2\n"),
      exp::builtin_jobs());
  EXPECT_FALSE(report.ok());
  const std::string& error = report.outcome_of("train").error;
  EXPECT_NE(error.find("unknown sender 'warp'"), std::string::npos) << error;
  EXPECT_NE(error.find("bbr | cubic | copa | vivace | reno"),
            std::string::npos)
      << error;
  // A bad reward spelling names the valid ones.
  const exp::CampaignReport bad_reward = exp::run_campaign(
      campaign_from("[campaign]\nname = bad-reward\nout_dir = " + dir +
                    "2\n"
                    "[job train]\nkind = train-adversary\ndomain = cc\n"
                    "adversary = fairness\nflows = bbr,bbr\n"
                    "reward = nope\nsteps = 256\nduration = 2\n"),
      exp::builtin_jobs());
  EXPECT_FALSE(bad_reward.ok());
  EXPECT_NE(bad_reward.outcome_of("train").error.find("jain | victim"),
            std::string::npos)
      << bad_reward.outcome_of("train").error;

  // Numeric params are strict: no sign wrap-around ("-1" is not 2^64 - 1),
  // no truncated junk ("20x" is not 20), no non-finite durations.
  const std::string fair_job =
      "domain = cc\nadversary = fairness\nflows = bbr,bbr\n";
  for (const auto& [job, needle] :
       std::vector<std::pair<std::string, std::string>>{
           {"kind = train-adversary\n" + fair_job + "steps = 20x\n",
            "steps is not an integer: '20x'"},
           {"kind = train-adversary\n" + fair_job + "steps = -1\n",
            "steps is not an integer: '-1'"},
           {"kind = record-traces\n" + fair_job + "count = -1\n",
            "count is not an integer: '-1'"},
           {"kind = train-adversary\n" + fair_job + "duration = nan\n",
            "duration must be a finite number without a sign: 'nan'"},
           {"kind = train-adversary\ndomain = cc\nprotocol = bbr\n"
            "duration = inf\n",
            "duration must be a finite number without a sign: 'inf'"},
           {"kind = train-adversary\ndomain = cc\nprotocol = bbr\n"
            "duration = 2s\n",
            "duration must be a finite number without a sign: '2s'"},
           // Shorter than one 30-ms epoch: the env's validator names the
           // field and both values, not a bare "bad parameters".
           {"kind = train-adversary\ndomain = cc\nprotocol = cubic\n"
            "steps = 256\nduration = 0.01\n",
            "CcAdversaryEnv: episode_duration_s 0.01 < epoch_s 0.03"},
           {"kind = train-adversary\n" + fair_job + "duration = 0.01\n",
            "FairnessAdversaryEnv: episode_duration_s 0.01 < epoch_s 0.03"},
           {"kind = train-adversary\ndomain = cc\nprotocol = bbr\n"
            "steps = 256\nduration = 2\nstore_name = a\n"
            "store_version = -1\n",
            "store_version is not an integer: '-1'"},
       }) {
    const exp::CampaignReport bad = exp::run_campaign(
        campaign_from("[campaign]\nname = bad-number\nout_dir = " + dir +
                      "3\n[job j]\n" + job),
        exp::builtin_jobs());
    EXPECT_FALSE(bad.ok()) << job;
    EXPECT_NE(bad.outcome_of("j").error.find(needle), std::string::npos)
        << bad.outcome_of("j").error;
  }
}

/// Occurrences of `needle` in `text`.
std::size_t count_of(const std::string& text, const std::string& needle) {
  std::size_t n = 0;
  for (std::size_t at = text.find(needle); at != std::string::npos;
       at = text.find(needle, at + needle.size())) {
    ++n;
  }
  return n;
}

// A link env's validator runs when the job resolves its attack, so its error
// reaches the outcome with the job's prefix — exactly once.
TEST(BuiltinJobs, LinkEnvValidationErrorsCarryTheJobPrefixOnce) {
  const std::string dir = temp_dir("netadv_builtin_env_prefix");
  for (const auto& [job, env] :
       std::vector<std::pair<std::string, std::string>>{
           {"domain = cc\nprotocol = cubic\n", "CcAdversaryEnv"},
           {"domain = cc\nadversary = fairness\nflows = bbr,bbr\n",
            "FairnessAdversaryEnv"}}) {
    const exp::CampaignReport report = exp::run_campaign(
        campaign_from("[campaign]\nname = short\nout_dir = " + dir +
                      "\n[job j]\nkind = train-adversary\n" + job +
                      "steps = 256\nduration = 0.01\n"),
        exp::builtin_jobs());
    EXPECT_FALSE(report.ok()) << job;
    const std::string& error = report.outcome_of("j").error;
    EXPECT_NE(error.find("job 'j' (train-adversary): " + env +
                         ": episode_duration_s 0.01 < epoch_s 0.03"),
              std::string::npos)
        << error;
    EXPECT_EQ(count_of(error, "job 'j' (train-adversary): "), 1u) << error;
  }
}

// `flows =` is a cc concept on replay too: an ABR replay must not silently
// drop it and replay single-flow ABR instead.
TEST(BuiltinJobs, ReplayRejectsAFlowMixOutsideTheCcDomain) {
  const std::string dir = temp_dir("netadv_builtin_replay_flows");
  const exp::CampaignReport report = exp::run_campaign(
      campaign_from("[campaign]\nname = abr-flows\nout_dir = " + dir + "\n"
                    "[job corpus]\nkind = gen-traces\ngenerator = random\n"
                    "count = 2\n"
                    "[job rep]\nkind = replay\nafter = corpus\n"
                    "traces = corpus\nprotocol = bb\nflows = bbr,cubic\n"),
      exp::builtin_jobs());
  EXPECT_FALSE(report.ok());
  const std::string& error = report.outcome_of("rep").error;
  EXPECT_NE(error.find("fairness adversaries need domain = cc"),
            std::string::npos)
      << error;
  EXPECT_FALSE(std::filesystem::exists(dir + "/rep_qoe.csv"));
  EXPECT_FALSE(std::filesystem::exists(dir + "/rep_replay.csv"));
}

// ------------------------------------------------- golden campaign
//
// Cross-commit identity oracle for the attack job kinds: one tiny campaign
// covering train-adversary / record-traces / replay for ABR-PPO, ABR-CEM,
// CC and all three fairness scenarios, pinned to the FNV-1a hash of every
// artifact, every job note and every manifest params_hash. The thread-count
// gates above only prove identity *within* a build; this one fails when a
// refactor changes a single byte any of these jobs write. Every budget sits
// at its NETADV_SCALE floor (steps 256, count 2, CEM iterations 2), so the
// campaign is the same at any scale; the test still pins 0.01, the smoke
// scale CI runs campaigns at.
//
// The constants are the output of an x86-64 Release build (IEEE doubles,
// no fast-math). A deliberate change to any of these jobs' numerics must
// regenerate them — run the test and copy the reported actual values.

std::string golden_campaign_spec(const std::string& dir) {
  return "[campaign]\nname = golden\nseed = 13\nout_dir = " + dir + "\n"
         "[job abr-train]\nkind = train-adversary\nprotocol = bb\n"
         "steps = 256\n"
         "[job abr-rec]\nkind = record-traces\nafter = abr-train\n"
         "from = abr-train\nprotocol = bb\ncount = 2\n"
         "[job abr-rep]\nkind = replay\nafter = abr-rec\ntraces = abr-rec\n"
         "protocol = mpc\n"
         "[job cem-rec]\nkind = record-traces\nadversary = cem\n"
         "protocol = bb\ncount = 2\npopulation = 8\niterations = 2\n"
         "[job cem-rep]\nkind = replay\nafter = cem-rec\ntraces = cem-rec\n"
         "protocol = bb\n"
         "[job cc-train]\nkind = train-adversary\ndomain = cc\n"
         "protocol = cubic\nsteps = 256\nduration = 2\n"
         "[job cc-rec]\nkind = record-traces\nafter = cc-train\n"
         "from = cc-train\ndomain = cc\nprotocol = cubic\ncount = 2\n"
         "duration = 2\n"
         "[job cc-rep]\nkind = replay\nafter = cc-rec\ntraces = cc-rec\n"
         "domain = cc\nprotocol = bbr\n"
         "[job fair-train]\nkind = train-adversary\ndomain = cc\n"
         "adversary = fairness\nflows = bbr,cubic\nsteps = 256\n"
         "duration = 2\n"
         "[job fair-rec]\nkind = record-traces\nafter = fair-train\n"
         "from = fair-train\ndomain = cc\nadversary = fairness\n"
         "flows = bbr,cubic\ncount = 2\nduration = 2\n"
         "[job fair-rep]\nkind = replay\nafter = fair-rec\n"
         "traces = fair-rec\ndomain = cc\nflows = bbr,bbr\n"
         "[job late-train]\nkind = train-adversary\ndomain = cc\n"
         "adversary = late-join\nreward = victim\nflows = cubic,bbr\n"
         "steps = 256\nduration = 2\n"
         "[job late-rec]\nkind = record-traces\nafter = late-train\n"
         "from = late-train\ndomain = cc\nadversary = late-join\n"
         "reward = victim\nflows = cubic,bbr\ncount = 2\nduration = 2\n"
         "[job cross-train]\nkind = train-adversary\ndomain = cc\n"
         "adversary = cross-traffic\nflows = bbr,cubic\nsteps = 256\n"
         "duration = 2\n"
         "[job cross-rec]\nkind = record-traces\nafter = cross-train\n"
         "from = cross-train\ndomain = cc\nadversary = cross-traffic\n"
         "flows = bbr,cubic\ncount = 2\nduration = 2\n";
}

struct GoldenArtifact {
  const char* file;
  const char* fnv1a;
};

struct GoldenJob {
  const char* id;
  const char* params_hash;
  const char* note;
};

constexpr GoldenArtifact kGoldenArtifacts[] = {
    {"abr-train_adversary.ckpt", "0d06f55fa314e6a5"},
    {"abr-rec_traces.csv", "cf89ffbad2a0fea2"},
    {"abr-rec_summary.csv", "9e277b9d1823c05a"},
    {"abr-rep_qoe.csv", "4d25c127ecd72d5d"},
    {"cem-rec_traces.csv", "760688a81e77de69"},
    {"cem-rec_summary.csv", "ccdd54478b99fe44"},
    {"cem-rep_qoe.csv", "5497b4290581e579"},
    {"cc-train_adversary.ckpt", "c9ea0abbf3aa0bc7"},
    {"cc-rec_traces.csv", "c03d49c54e285f50"},
    {"cc-rec_summary.csv", "252dee4e6ce52ed4"},
    {"cc-rep_replay.csv", "9c3aa63c1b32acb6"},
    {"fair-train_adversary.ckpt", "1cffec22f26a224b"},
    {"fair-rec_traces.csv", "ed54bc5033500277"},
    {"fair-rec_summary.csv", "1b846262536b7ecd"},
    {"fair-rep_replay.csv", "46120f2c865a3199"},
    {"late-train_adversary.ckpt", "3a6f515d8e7c58c0"},
    {"late-rec_traces.csv", "c2768bdfbe23cdc6"},
    {"late-rec_summary.csv", "899173647e1f94ac"},
    {"cross-train_adversary.ckpt", "2e8dd56a6d1d15e6"},
    {"cross-rec_traces.csv", "c98c46e20bf3a6b0"},
    {"cross-rec_summary.csv", "99fb97870beeef89"},
};

constexpr GoldenJob kGoldenJobs[] = {
    {"abr-train", "b63954c1fed50ccb",
     "PPO adversary vs bb, 256 steps"},
    {"abr-rec", "aee9a772e46edc55",
     "2 traces, mean regret 105.05 QoE"},
    {"abr-rep", "f1e6f33b983a39cc",
     "2 replays, mean QoE 0.99"},
    {"cem-rec", "6361f60795e283af",
     "2 traces, mean regret 123.28 QoE"},
    {"cem-rep", "7efc268b59d7b0b4",
     "2 replays, mean QoE -0.27"},
    {"cc-train", "adcb8d38e5760491",
     "PPO adversary vs cubic, 256 steps"},
    {"cc-rec", "dd711f329332e83a",
     "2 cc episodes, mean utilization 11.9%"},
    {"cc-rep", "ccea0ac1524a0ccb",
     "2 cc replays, mean utilization 55.1%"},
    {"fair-train", "9351a83dcb99e72c",
     "PPO fairness adversary vs bbr,cubic, 256 steps"},
    {"fair-rec", "16168a377218615c",
     "2 fairness episodes vs bbr,cubic, mean Jain 0.773, "
     "victim util 51.2%"},
    {"fair-rep", "4f1bd90d4252494d",
     "2 multi-flow replays, mean Jain 0.642"},
    {"late-train", "2e0ec29d4ceac28f",
     "PPO late-join adversary vs cubic,bbr, 256 steps"},
    {"late-rec", "0120938e91216435",
     "2 late-join episodes vs cubic,bbr, mean Jain 0.859, "
     "victim util 9.5%"},
    {"cross-train", "1ad489fd815f7f7e",
     "PPO cross-traffic adversary vs bbr,cubic, 256 steps"},
    {"cross-rec", "3be22445a8f5a3f6",
     "2 cross-traffic episodes vs bbr,cubic, mean Jain 0.682, "
     "victim util 44.0%"},
};

TEST(BuiltinJobs, GoldenAttackCampaignIsByteStableAcrossCommits) {
  ::setenv("NETADV_SCALE", "0.01", /*overwrite=*/1);
  const std::string dir = temp_dir("netadv_builtin_golden");
  const exp::CampaignReport report = exp::run_campaign(
      campaign_from(golden_campaign_spec(dir)), exp::builtin_jobs());
  ASSERT_TRUE(report.ok());

  // Exactly the pinned artifacts, nothing more (manifest aside).
  std::vector<std::string> written;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name != exp::kManifestFilename) written.push_back(name);
  }
  std::sort(written.begin(), written.end());
  std::vector<std::string> pinned;
  for (const GoldenArtifact& a : kGoldenArtifacts) pinned.emplace_back(a.file);
  std::sort(pinned.begin(), pinned.end());
  EXPECT_EQ(written, pinned);

  for (const GoldenArtifact& a : kGoldenArtifacts) {
    const std::string path = dir + "/" + a.file;
    ASSERT_TRUE(std::filesystem::exists(path)) << a.file;
    EXPECT_EQ(util::hash_hex(util::fnv1a64_file(path)), a.fnv1a)
        << "{\"" << a.file << "\", \""
        << util::hash_hex(util::fnv1a64_file(path)) << "\"},";
  }

  const std::vector<exp::ManifestEntry> manifest =
      exp::read_manifest(exp::manifest_path(dir));
  for (const GoldenJob& job : kGoldenJobs) {
    const std::string& note = report.outcome_of(job.id).result.note;
    std::string params_hash;
    for (const exp::ManifestEntry& entry : manifest) {
      if (entry.job == job.id) params_hash = entry.params_hash;
    }
    EXPECT_EQ(params_hash, job.params_hash) << job.id;
    EXPECT_EQ(note, job.note) << "{\"" << job.id << "\", \"" << params_hash
                              << "\", \"" << note << "\"},";
  }
}

TEST(BuiltinJobs, FairnessCampaignArtifactsAreIdenticalAcrossThreadCounts) {
  expect_artifacts_identical_across_thread_counts(fairness_pipeline_spec,
                                                  "netadv_builtin_fair");
}

}  // namespace
