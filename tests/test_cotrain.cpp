// The population layer and the co-training loop built on it: the
// CheckpointStore's immutable-version/idempotent-put contract, v3 checkpoint
// provenance metadata, the EvalMatrix promotion rule, `kind = cotrain`
// expansion grammar, and the end-to-end generation loop — including the
// bit-identity gates (any thread count, kill/--resume) the ParallelCotrain
// suite runs under TSan.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "abr/pensieve.hpp"
#include "abr/video.hpp"
#include "core/checkpoint_store.hpp"
#include "core/eval_matrix.hpp"
#include "core/registry.hpp"
#include "exp/campaign.hpp"
#include "exp/jobs.hpp"
#include "exp/scheduler.hpp"
#include "rl/checkpoint.hpp"
#include "trace/generators.hpp"
#include "util/csv.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"
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

std::string write_file(const std::string& dir, const std::string& name,
                       const std::string& content) {
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/" + name;
  std::ofstream{path} << content;
  return path;
}

// ---------------------------------------------------------- checkpoint store

TEST(CheckpointStore, ParsesRefsWithAndWithoutVersion) {
  const auto plain = core::parse_checkpoint_ref("champion");
  EXPECT_EQ(plain.first, "champion");
  EXPECT_FALSE(plain.second.has_value());

  const auto exact = core::parse_checkpoint_ref("champion@v12");
  EXPECT_EQ(exact.first, "champion");
  ASSERT_TRUE(exact.second.has_value());
  EXPECT_EQ(*exact.second, 12u);

  // Only a trailing @v<digits> is a version selector; anything else stays
  // part of the name (and put() later rejects it as unround-trippable).
  const auto odd = core::parse_checkpoint_ref("champion@latest");
  EXPECT_EQ(odd.first, "champion@latest");
  EXPECT_FALSE(odd.second.has_value());
}

TEST(CheckpointStore, PutResolveRoundTripsBytesAndProvenance) {
  const std::string dir = temp_dir("netadv_store_roundtrip");
  const std::string source = write_file(dir, "src.ckpt", "checkpoint-bytes\n");
  core::CheckpointStore store{dir + "/store"};

  const core::StoredCheckpoint put =
      store.put("champion", 0, "protocol", source, "test/job");
  EXPECT_EQ(put.name, "champion");
  EXPECT_EQ(put.version, 0u);
  EXPECT_EQ(put.kind, "protocol");
  EXPECT_EQ(put.note, "test/job");
  EXPECT_EQ(put.provenance,
            util::hash_hex(util::fnv1a64("checkpoint-bytes\n")));
  EXPECT_EQ(read_file(put.path), "checkpoint-bytes\n");

  const core::StoredCheckpoint latest = store.resolve("champion");
  const core::StoredCheckpoint exact = store.resolve("champion@v0");
  EXPECT_EQ(latest.path, put.path);
  EXPECT_EQ(exact.path, put.path);
  EXPECT_EQ(latest.provenance, put.provenance);
  EXPECT_EQ(latest.kind, "protocol");
  EXPECT_EQ(latest.note, "test/job");
}

TEST(CheckpointStore, LatestMeansHighestVersion) {
  const std::string dir = temp_dir("netadv_store_latest");
  const std::string v0 = write_file(dir, "v0src.ckpt", "gen zero\n");
  const std::string v3 = write_file(dir, "v3src.ckpt", "gen three\n");
  core::CheckpointStore store{dir + "/store"};
  store.put("pop", 0, "protocol", v0);
  store.put("pop", 3, "protocol", v3);

  EXPECT_EQ(store.resolve("pop").version, 3u);
  EXPECT_EQ(read_file(store.resolve("pop").path), "gen three\n");
  EXPECT_EQ(read_file(store.resolve("pop@v0").path), "gen zero\n");

  const auto versions = store.versions("pop");
  ASSERT_EQ(versions.size(), 2u);
  EXPECT_EQ(versions[0].version, 0u);
  EXPECT_EQ(versions[1].version, 3u);
}

TEST(CheckpointStore, RePutIsIdempotentOnIdenticalBytesOnly) {
  const std::string dir = temp_dir("netadv_store_idempotent");
  const std::string same = write_file(dir, "same.ckpt", "payload A\n");
  const std::string other = write_file(dir, "other.ckpt", "payload B\n");
  core::CheckpointStore store{dir + "/store"};

  const auto first = store.put("pop", 1, "adversary", same, "first");
  // A spool worker double-executing the publishing job must be harmless.
  const auto again = store.put("pop", 1, "adversary", same, "second try");
  EXPECT_EQ(again.path, first.path);
  EXPECT_EQ(again.provenance, first.provenance);

  // A version is immutable provenance, never a mutable slot.
  EXPECT_THROW(store.put("pop", 1, "adversary", other), std::runtime_error);
  EXPECT_EQ(read_file(first.path), "payload A\n");
}

TEST(CheckpointStore, UnresolvedRefsEnumerateWhatExists) {
  const std::string dir = temp_dir("netadv_store_unresolved");
  const std::string src = write_file(dir, "src.ckpt", "bytes\n");
  core::CheckpointStore store{dir + "/store"};
  store.put("alpha", 0, "protocol", src);
  store.put("beta", 2, "protocol", src);

  try {
    store.resolve("gamma");
    FAIL() << "unknown name must throw";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("alpha"), std::string::npos) << what;
    EXPECT_NE(what.find("beta"), std::string::npos) << what;
  }
  try {
    store.resolve("beta@v7");
    FAIL() << "unknown version must throw";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("v2"), std::string::npos) << what;
  }
  EXPECT_FALSE(store.try_resolve("gamma").has_value());
  EXPECT_FALSE(store.try_resolve("beta@v7").has_value());
  EXPECT_TRUE(store.try_resolve("beta@v2").has_value());
}

TEST(CheckpointStore, EmptyOrMissingRootIsAnEmptyStoreNotAnError) {
  core::CheckpointStore store{temp_dir("netadv_store_missing_root")};
  EXPECT_TRUE(store.names().empty());
  EXPECT_TRUE(store.versions("anything").empty());
  EXPECT_FALSE(store.try_resolve("anything").has_value());
}

TEST(CheckpointStore, RejectsNamesThatCannotRoundTripAsRefs) {
  const std::string dir = temp_dir("netadv_store_badname");
  const std::string src = write_file(dir, "src.ckpt", "bytes\n");
  core::CheckpointStore store{dir + "/store"};
  EXPECT_THROW(store.put("", 0, "protocol", src), std::runtime_error);
  EXPECT_THROW(store.put("a/b", 0, "protocol", src), std::runtime_error);
  EXPECT_THROW(store.put("a@v1", 0, "protocol", src), std::runtime_error);
}

TEST(CheckpointStore, RegistryResolvesPensieveStoreRefs) {
  const std::string dir = temp_dir("netadv_store_registry");
  const std::string root = dir + "/store";
  const abr::VideoManifest manifest;
  const rl::PpoAgent agent = abr::make_pensieve_agent(manifest, /*seed=*/3);
  const std::string ckpt = dir + "/trained_pensieve.ckpt";
  std::filesystem::create_directories(dir);
  rl::save_checkpoint(agent, ckpt);
  core::CheckpointStore{root}.put("pop", 0, "protocol", ckpt);

  core::FactoryArgs args;
  args.set("store", root);
  const auto protocol = core::abr_protocols().make("pensieve@pop", args);
  ASSERT_NE(protocol, nullptr);
  EXPECT_EQ(protocol->name(), "pensieve");
  EXPECT_NE(core::abr_protocols().make("pensieve@pop@v0", args), nullptr);
  // Store refs only apply to entries that opted in, and a dangling ref
  // must fail loudly, not fall back to an untrained policy.
  EXPECT_THROW(core::abr_protocols().make("pensieve@nosuch", args),
               std::runtime_error);
  EXPECT_THROW(core::abr_protocols().make("bb@pop", args), std::runtime_error);
}

// ------------------------------------------------------- checkpoint metadata

TEST(CheckpointMeta, V3RoundTripsMetaAndLearnableState) {
  const std::string dir = temp_dir("netadv_ckpt_meta");
  std::filesystem::create_directories(dir);
  const abr::VideoManifest manifest;
  const rl::PpoAgent agent = abr::make_pensieve_agent(manifest, /*seed=*/5);

  const rl::CheckpointMeta meta{{"campaign", "cotrain"},
                                {"job", "loop-g0-promote"},
                                {"note", "free form with spaces"}};
  const std::string path = dir + "/with_meta.ckpt";
  rl::save_checkpoint(agent, path, meta);
  EXPECT_EQ(rl::read_checkpoint_meta(path), meta);

  // Loading ignores the block; a reload + identical-meta save is a
  // byte-identical round trip (the store's provenance hash depends on it).
  rl::PpoAgent restored = abr::make_pensieve_agent(manifest, /*seed=*/0);
  rl::load_checkpoint(restored, path);
  const std::string again = dir + "/with_meta_again.ckpt";
  rl::save_checkpoint(restored, again, meta);
  EXPECT_EQ(read_file(again), read_file(path));
}

TEST(CheckpointMeta, EmptyMetaWritesPlainV2Bytes) {
  const std::string dir = temp_dir("netadv_ckpt_meta_empty");
  std::filesystem::create_directories(dir);
  const abr::VideoManifest manifest;
  const rl::PpoAgent agent = abr::make_pensieve_agent(manifest, /*seed=*/5);

  const std::string plain = dir + "/plain.ckpt";
  const std::string empty_meta = dir + "/empty_meta.ckpt";
  rl::save_checkpoint(agent, plain);
  rl::save_checkpoint(agent, empty_meta, rl::CheckpointMeta{});
  EXPECT_EQ(read_file(empty_meta), read_file(plain));
  // Pre-v3 artifacts report no metadata rather than erroring.
  EXPECT_TRUE(rl::read_checkpoint_meta(plain).empty());
}

TEST(CheckpointMeta, RejectsUnserializableKeysAndValues) {
  const std::string dir = temp_dir("netadv_ckpt_meta_bad");
  std::filesystem::create_directories(dir);
  const abr::VideoManifest manifest;
  const rl::PpoAgent agent = abr::make_pensieve_agent(manifest, /*seed=*/5);
  EXPECT_THROW(rl::save_checkpoint(agent, dir + "/bad.ckpt",
                                   {{"two words", "value"}}),
               std::runtime_error);
  EXPECT_THROW(rl::save_checkpoint(agent, dir + "/bad.ckpt",
                                   {{"key", "line\nbreak"}}),
               std::runtime_error);
}

// -------------------------------------------------------------- eval matrix

core::EvalMatrix hand_matrix(std::vector<core::EvalCell> cells,
                             std::size_t columns) {
  core::EvalMatrix m;
  for (std::size_t c = 0; c < columns; ++c) {
    m.checkpoints.push_back("col" + std::to_string(c));
  }
  for (std::size_t r = 0; r < cells.size() / columns; ++r) {
    m.adversaries.push_back("row" + std::to_string(r));
  }
  m.cells = std::move(cells);
  return m;
}

TEST(EvalMatrix, WorstCaseIsTheColumnMinimumOverAdversaries) {
  // 2 adversaries x 2 checkpoints; mean_qoe picked so each column's worst
  // case comes from a different row.
  const core::EvalMatrix m = hand_matrix(
      {{/*regret*/ 1.0, /*qoe*/ 5.0, 0.0}, {0.5, 9.0, 0.0},
       {4.0, 2.0, 0.0}, {2.0, 7.0, 0.0}},
      2);
  EXPECT_EQ(m.at(1, 0).mean_qoe, 2.0);
  EXPECT_EQ(m.worst_case_qoe(0), 2.0);
  EXPECT_EQ(m.worst_case_qoe(1), 7.0);
  EXPECT_EQ(m.worst_case_regret(0), 4.0);
  EXPECT_EQ(m.worst_case_regret(1), 2.0);
  EXPECT_EQ(m.least_exploitable(), 1u);
}

TEST(EvalMatrix, PromotionTiesGoToTheLowestColumnIndex) {
  // Candidates trained below PPO's rollout length are byte-identical to the
  // champion, so exact worst-case ties are a real (not hypothetical) case:
  // the first-listed column — the incumbent — must win the draw.
  const core::EvalMatrix tied =
      hand_matrix({{0.0, 3.0, 0.0}, {0.0, 3.0, 0.0}, {0.0, 3.0, 0.0}}, 3);
  EXPECT_EQ(tied.least_exploitable(), 0u);

  const core::EvalMatrix empty;
  EXPECT_THROW(empty.least_exploitable(), std::logic_error);
}

TEST(EvalMatrix, CsvArtifactsCarryThePromotionInputs) {
  const std::string dir = temp_dir("netadv_eval_csv");
  std::filesystem::create_directories(dir);
  const core::EvalMatrix m =
      hand_matrix({{1.0, 5.0, 4.0}, {0.5, 9.0, 8.0}}, 2);

  const std::string long_form = dir + "/matrix.csv";
  save_eval_matrix(m, long_form);
  const std::string text = read_file(long_form);
  EXPECT_NE(text.find("adversary,checkpoint,mean_regret,mean_qoe,worst_qoe"),
            std::string::npos);
  EXPECT_NE(text.find("row0,col1"), std::string::npos);

  // The reduction the promote job consumes is numeric-only on purpose —
  // util::read_csv must be able to parse it back.
  const std::string worst = dir + "/worst.csv";
  save_eval_worst(m, worst);
  const util::CsvTable table = util::read_csv(worst);
  ASSERT_EQ(table.header.size(), 3u);
  EXPECT_EQ(table.header[0], "checkpoint");
  EXPECT_EQ(table.header[2], "worst_case_qoe");
  ASSERT_EQ(table.rows.size(), 2u);
  EXPECT_EQ(table.rows[0][0], 0.0);
  EXPECT_EQ(table.rows[1][0], 1.0);
  EXPECT_EQ(table.rows[0][2], m.worst_case_qoe(0));
  EXPECT_EQ(table.rows[1][2], m.worst_case_qoe(1));
}

TEST(EvalMatrix, SavesReportAFullDisk) {
  if (!std::filesystem::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  const core::EvalMatrix m =
      hand_matrix({{1.0, 5.0, 4.0}, {0.5, 9.0, 8.0}}, 2);
  EXPECT_THROW(save_eval_matrix(m, "/dev/full"), std::runtime_error);
  EXPECT_THROW(save_eval_worst(m, "/dev/full"), std::runtime_error);
}

// -------------------------------------------------------- cotrain expansion

exp::Campaign campaign_from(const std::string& text) {
  return exp::parse_campaign(util::parse_spec_text(text, "inline"));
}

std::string cotrain_spec(const std::string& base, const std::string& loop) {
  return "[campaign]\nname = cotrain-test\nseed = 11\nout_dir = " + base +
         "\n[job loop]\nkind = cotrain\n" + loop;
}

const exp::JobSpec* find_job(const exp::Campaign& c, const std::string& id) {
  for (const auto& job : c.jobs) {
    if (job.id == id) return &job;
  }
  return nullptr;
}

TEST(CotrainCampaign, ExpandsTheFullGenerationLoop) {
  // The shipped spec's shape: 2 generations x {ppo, cem} x 2 seeds.
  const exp::Campaign c = campaign_from(cotrain_spec(
      "/tmp/unused",
      "generations = 2\nadversaries = ppo, cem\nseeds = 1, 2\n"
      "candidates = 2\nstore = champs\n"));
  // corpus + gen0 + per generation (2 ppo trains + 4 records + 2 candidates
  // + matrix + promote) = 2 + 2 * 10.
  EXPECT_EQ(c.jobs.size(), 22u);

  const exp::JobSpec* gen0 = find_job(c, "loop-gen0");
  ASSERT_NE(gen0, nullptr);
  EXPECT_EQ(gen0->kind, "train-protocol");
  EXPECT_EQ(gen0->value_or("store_name", ""), "champs");
  EXPECT_EQ(gen0->value_or("store_version", ""), "0");

  // Generation 0 attacks the gen-0 baseline; generation 1 attacks the
  // promoted champion from generation 0.
  const exp::JobSpec* g0_record = find_job(c, "loop-g0-ppo-s1");
  ASSERT_NE(g0_record, nullptr);
  EXPECT_EQ(g0_record->value_or("checkpoint_from", ""), "loop-gen0");
  EXPECT_EQ(g0_record->value_or("from", ""), "loop-g0-ppo-s1-train");
  const exp::JobSpec* g1_record = find_job(c, "loop-g1-cem-s2");
  ASSERT_NE(g1_record, nullptr);
  EXPECT_EQ(g1_record->value_or("checkpoint_from", ""), "loop-g0-promote");

  // cem searches record directly — no train job for them.
  EXPECT_EQ(find_job(c, "loop-g0-cem-s1-train"), nullptr);

  // The gen-0 baseline stays column 0 of every matrix (the promotion
  // guarantee); generation 1 also scores the incumbent champion.
  const exp::JobSpec* g0_matrix = find_job(c, "loop-g0-matrix");
  ASSERT_NE(g0_matrix, nullptr);
  EXPECT_EQ(g0_matrix->value_or("checkpoints", ""),
            "loop-gen0,loop-g0-cand1,loop-g0-cand2");
  const exp::JobSpec* g1_matrix = find_job(c, "loop-g1-matrix");
  ASSERT_NE(g1_matrix, nullptr);
  EXPECT_EQ(g1_matrix->value_or("checkpoints", ""),
            "loop-gen0,loop-g0-promote,loop-g1-cand1,loop-g1-cand2");

  // Candidate c retrains on the top-c exploiters, starting from the
  // champion's weights.
  const exp::JobSpec* cand = find_job(c, "loop-g1-cand2");
  ASSERT_NE(cand, nullptr);
  EXPECT_EQ(cand->value_or("init", ""), "loop-g0-promote");
  EXPECT_EQ(cand->value_or("top_k", ""), "2");
  EXPECT_EQ(cand->value_or("exploit_from", ""),
            "loop-g1-ppo-s1,loop-g1-ppo-s2,loop-g1-cem-s1,loop-g1-cem-s2");

  // Promotions publish consecutive store versions.
  const exp::JobSpec* g1_promote = find_job(c, "loop-g1-promote");
  ASSERT_NE(g1_promote, nullptr);
  EXPECT_EQ(g1_promote->value_or("store_name", ""), "champs");
  EXPECT_EQ(g1_promote->value_or("store_version", ""), "2");
  EXPECT_EQ(g1_promote->value_or("matrix_from", ""), "loop-g1-matrix");
}

TEST(CotrainCampaign, ValidatesTheLoopAxesAtLoadTime) {
  const auto expect_bad = [](const std::string& loop,
                             const std::string& needle) {
    try {
      campaign_from("[campaign]\nname = x\n[job loop]\nkind = cotrain\n" +
                    loop);
      FAIL() << "spec with '" << loop << "' must not parse";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string{e.what()}.find(needle), std::string::npos)
          << e.what();
    }
  };
  expect_bad("generations = 0\n", "generations must be >= 1");
  expect_bad("candidates = 0\n", "candidates must be >= 1");
  expect_bad("adversaries = drl\n", "unknown adversary kind");
  // Fairness kinds exist in the adversary registry but attack cc flow
  // mixes; the error must say why they are out, not just "unknown".
  expect_bad("adversaries = fairness\n", "cc-only");
  expect_bad("domain = cc\n", "domain is always abr");
  expect_bad("generator = nosuch\n", "unknown generator");
  // Counts are strict unsigned integers: no wrap-around, no trailing junk.
  expect_bad("generations = -1\n", "generations is not an integer: '-1'");
  expect_bad("candidates = 2x\n", "candidates is not an integer: '2x'");
  expect_bad("seeds = 1, +2\n", "seeds is not an integer: '+2'");
}

// Small enough for ctest (NETADV_SCALE is unset here, so every knob is
// explicit): 1-2 generations, cem-only population, 2-trace corpora, and
// step budgets at the executor floors.
std::string tiny_loop(std::uint64_t generations) {
  return "generations = " + std::to_string(generations) +
         "\nadversaries = cem\ncandidates = 1\ngenerator = fcc\n"
         "corpus_count = 2\nprotocol_steps = 1024\ntraces = 2\n"
         "population = 8\niterations = 2\nstore = champ\n";
}

TEST(CotrainCampaign, GenerationLoopRunsEndToEndAndNeverDemotes) {
  const std::string base = temp_dir("netadv_cotrain_e2e");
  const exp::Campaign c =
      campaign_from(cotrain_spec(base, tiny_loop(/*generations=*/2)));
  util::ThreadPool pool{4};
  exp::SchedulerOptions options;
  options.pool = &pool;
  const exp::CampaignReport report =
      exp::run_campaign(c, exp::builtin_jobs(), options);
  EXPECT_TRUE(report.ok());

  // Each generation leaves its regret matrix + reduction behind.
  for (int g = 0; g < 2; ++g) {
    const std::string tag = base + "/loop-g" + std::to_string(g);
    EXPECT_TRUE(std::filesystem::exists(tag + "-matrix_matrix.csv"));
    EXPECT_TRUE(std::filesystem::exists(tag + "-matrix_worst.csv"));
    EXPECT_TRUE(std::filesystem::exists(tag + "-promote_pensieve.ckpt"));
  }

  // The acceptance gate: the promoted champion's worst-case QoE over the
  // final generation's adversary population is >= the gen-0 baseline's
  // (column 0 of every matrix by construction).
  const util::CsvTable worst = util::read_csv(base + "/loop-g1-matrix_worst.csv");
  const util::CsvTable promotion =
      util::read_csv(base + "/loop-g1-promote_promotion.csv");
  ASSERT_EQ(promotion.rows.size(), 1u);
  const auto winner = static_cast<std::size_t>(promotion.rows[0][0]);
  ASSERT_LT(winner, worst.rows.size());
  EXPECT_GE(worst.rows[winner][2], worst.rows[0][2]);
  // _promotion.csv rounds through the default CSV precision (%.6g); the
  // full-precision value lives in _worst.csv.
  EXPECT_NEAR(promotion.rows[0][2], worst.rows[winner][2],
              1e-4 * (1.0 + std::abs(worst.rows[winner][2])));

  // Promotions landed in the store as consecutive immutable versions, and
  // the stored bytes are the promote job's artifact verbatim.
  core::CheckpointStore store{base + "/store"};
  const auto versions = store.versions("champ");
  ASSERT_EQ(versions.size(), 3u);
  EXPECT_EQ(versions[0].version, 0u);
  EXPECT_EQ(versions[2].version, 2u);
  EXPECT_EQ(versions[2].kind, "protocol");
  EXPECT_EQ(read_file(store.resolve("champ").path),
            read_file(base + "/loop-g1-promote_pensieve.ckpt"));

  // The promoted champion is targetable through the registry by name.
  core::FactoryArgs args;
  args.set("store", base + "/store");
  EXPECT_NE(core::abr_protocols().make("pensieve@champ", args), nullptr);
}

// Promote reads the matrix's _worst.csv by column name: a reduction without
// the worst-case columns fails with a named error rather than reading past
// the end of each row.
TEST(CotrainCampaign, PromoteRejectsAWorstCsvWithoutItsColumns) {
  const std::string dir = temp_dir("netadv_promote_bad_worst");
  exp::JobRegistry registry = exp::builtin_jobs();
  registry.add("narrow-matrix", [](const exp::JobContext& ctx) {
    exp::JobResult result;
    result.artifacts.push_back(ctx.artifact("_worst.csv"));
    std::ofstream{result.artifacts.back()} << "checkpoint\n0\n1\n";
    return result;
  });
  const exp::CampaignReport report = exp::run_campaign(
      campaign_from("[campaign]\nname = narrow\nout_dir = " + dir + "\n"
                    "[job m]\nkind = narrow-matrix\n"
                    "[job p]\nkind = promote\nafter = m\nmatrix_from = m\n"
                    "checkpoints = m, m\n"),
      registry);
  EXPECT_FALSE(report.ok());
  const std::string& error = report.outcome_of("p").error;
  EXPECT_NE(error.find("matrix_from job 'm' has no worst_case_regret and "
                       "worst_case_qoe columns"),
            std::string::npos)
      << error;
  EXPECT_FALSE(std::filesystem::exists(dir + "/p_pensieve.ckpt"));
}

TEST(CotrainCampaign, PromoteReportsAFullDisk) {
  // The promoted checkpoint lands on /dev/full (a full disk): the promote
  // job must fail naming it, not complete with an empty champion.
  if (!std::filesystem::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  const std::string dir = temp_dir("netadv_promote_full_disk");
  std::filesystem::create_directories(dir);
  std::filesystem::create_symlink("/dev/full", dir + "/p_pensieve.ckpt");
  exp::JobRegistry registry = exp::builtin_jobs();
  registry.add("one-column-matrix", [](const exp::JobContext& ctx) {
    exp::JobResult result;
    result.artifacts.push_back(ctx.artifact("_worst.csv"));
    std::ofstream{result.artifacts.back()}
        << "checkpoint,worst_case_regret,worst_case_qoe\n0,1,2\n";
    result.artifacts.push_back(ctx.artifact("_pensieve.ckpt"));
    std::ofstream{result.artifacts.back()} << "checkpoint bytes\n";
    return result;
  });
  const exp::CampaignReport report = exp::run_campaign(
      campaign_from("[campaign]\nname = full\nout_dir = " + dir + "\n"
                    "[job m]\nkind = one-column-matrix\n"
                    "[job p]\nkind = promote\nafter = m\nmatrix_from = m\n"
                    "checkpoints = m\n"),
      registry);
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(report.outcome_of("m").status, "completed");
  const exp::JobOutcome& promote = report.outcome_of("p");
  EXPECT_EQ(promote.status, "failed");
  EXPECT_NE(promote.error.find("p_pensieve.ckpt"), std::string::npos)
      << promote.error;
  std::filesystem::remove_all(dir);
}

// ------------------------------------------------- determinism / resume

TEST(ParallelCotrain, EvalMatrixIdenticalAcrossThreadCounts) {
  const abr::VideoManifest manifest;
  trace::UniformRandomGenerator gen{{}};
  util::Rng rng{77};
  std::vector<core::EvalRow> rows;
  rows.push_back({"adv-a", gen.generate_many(3, rng)});
  rows.push_back({"adv-b", gen.generate_many(3, rng)});
  std::vector<core::EvalColumn> columns;
  columns.push_back(
      {"bb", [] { return core::abr_protocols().make("bb"); }});
  columns.push_back(
      {"mpc", [] { return core::abr_protocols().make("mpc"); }});

  const core::EvalMatrix reference =
      core::eval_matrix(manifest, rows, columns, nullptr);
  ASSERT_EQ(reference.cells.size(), 4u);
  for (std::size_t threads : {1u, 2u, 8u}) {
    util::ThreadPool pool{threads};
    const core::EvalMatrix parallel =
        core::eval_matrix(manifest, rows, columns, &pool);
    ASSERT_EQ(parallel.cells.size(), reference.cells.size());
    for (std::size_t i = 0; i < reference.cells.size(); ++i) {
      EXPECT_EQ(parallel.cells[i].mean_regret, reference.cells[i].mean_regret)
          << "cell " << i << " at " << threads << " threads";
      EXPECT_EQ(parallel.cells[i].mean_qoe, reference.cells[i].mean_qoe);
      EXPECT_EQ(parallel.cells[i].worst_qoe, reference.cells[i].worst_qoe);
    }
  }
}

// The per-generation artifacts the loop's decisions hang off.
const char* const kDecisionArtifacts[] = {
    "/loop-g0-matrix_matrix.csv",
    "/loop-g0-matrix_worst.csv",
    "/loop-g0-promote_promotion.csv",
    "/loop-g0-promote_pensieve.ckpt",
};

TEST(ParallelCotrain, CampaignArtifactsIdenticalAcrossThreadCounts) {
  const std::string seq_dir = temp_dir("netadv_cotrain_seq");
  exp::run_campaign(campaign_from(cotrain_spec(seq_dir, tiny_loop(1))),
                    exp::builtin_jobs());
  for (std::size_t threads : {2u, 8u}) {
    const std::string par_dir =
        temp_dir("netadv_cotrain_par" + std::to_string(threads));
    util::ThreadPool pool{threads};
    exp::SchedulerOptions options;
    options.pool = &pool;
    exp::run_campaign(campaign_from(cotrain_spec(par_dir, tiny_loop(1))),
                      exp::builtin_jobs(), options);
    for (const char* artifact : kDecisionArtifacts) {
      EXPECT_EQ(read_file(par_dir + artifact), read_file(seq_dir + artifact))
          << artifact << " at " << threads << " threads";
    }
    EXPECT_EQ(read_file(par_dir + "/store/champ/v1.ckpt"),
              read_file(seq_dir + "/store/champ/v1.ckpt"));
  }
}

TEST(ParallelCotrain, ResumeAfterKillReproducesIdenticalArtifacts) {
  const std::string base = temp_dir("netadv_cotrain_resume");
  const exp::Campaign c = campaign_from(cotrain_spec(base, tiny_loop(1)));
  exp::run_campaign(c, exp::builtin_jobs());
  std::vector<std::string> before;
  for (const char* artifact : kDecisionArtifacts) {
    before.push_back(read_file(base + artifact));
  }

  // Simulate a kill after the adversary round: the matrix, promotion, and
  // store publication are gone; --resume must rebuild exactly those jobs
  // and land bit-identical bytes.
  for (const char* artifact : kDecisionArtifacts) {
    std::filesystem::remove(base + artifact);
  }
  std::filesystem::remove_all(base + "/store/champ/v1.ckpt");
  exp::SchedulerOptions options;
  options.resume = true;
  const exp::CampaignReport report =
      exp::run_campaign(c, exp::builtin_jobs(), options);
  EXPECT_TRUE(report.ok());
  for (std::size_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(read_file(base + kDecisionArtifacts[i]), before[i])
        << kDecisionArtifacts[i];
  }
}

}  // namespace
