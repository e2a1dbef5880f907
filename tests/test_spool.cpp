// Tests for the spool-based multi-process campaign protocol (exp/spool.hpp)
// and the primitives it stands on: the util::fsatomic claim/steal helpers,
// the append-mode manifest writer's multi-process contract (concurrent
// writer processes, torn trailing lines from killed workers), per-manifest
// state derivation (derive_spool_view), run_worker end-to-end behaviour
// (cooperation, stale-claim reclaim, failure terminality, blocked-line
// dedup), and cross-worker invalidation when a dependency's outputs change.
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "exp/campaign.hpp"
#include "exp/manifest.hpp"
#include "exp/scheduler.hpp"
#include "exp/spool.hpp"
#include "util/fsatomic.hpp"
#include "util/spec.hpp"

namespace {

using namespace netadv;

std::string temp_dir(const std::string& name) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / name).string();
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

std::string read_file(const std::string& path) {
  std::ifstream in{path};
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

exp::Campaign campaign_from(const std::string& text) {
  return exp::parse_campaign(util::parse_spec_text(text, "inline"));
}

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

// ---------------------------------------------------------------- fsatomic

TEST(FsAtomic, ExclusiveCreateAdmitsExactlyOneWinner) {
  const std::string dir = temp_dir("netadv_fsatomic_excl");
  const std::string path = dir + "/claim";
  EXPECT_TRUE(util::create_file_exclusive(path, "first"));
  EXPECT_FALSE(util::create_file_exclusive(path, "second"));
  EXPECT_EQ(read_file(path), "first");
}

TEST(FsAtomic, ExclusiveCreateRaceHasOneWinnerAcrossThreads) {
  const std::string dir = temp_dir("netadv_fsatomic_race");
  const std::string path = dir + "/claim";
  std::vector<std::thread> threads;
  std::atomic<int> winners{0};
  for (int i = 0; i < 8; ++i) {
    threads.emplace_back([&, i] {
      if (util::create_file_exclusive(path, "t" + std::to_string(i))) {
        winners.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(winners.load(), 1);
}

TEST(FsAtomic, ReplaceFileIsAtomicAndRefreshesMtime) {
  const std::string dir = temp_dir("netadv_fsatomic_replace");
  const std::string path = dir + "/hb";
  util::replace_file(path, "v1");
  EXPECT_EQ(read_file(path), "v1");
  util::replace_file(path, "v2");
  EXPECT_EQ(read_file(path), "v2");
  const auto age = util::file_age_seconds(path);
  ASSERT_TRUE(age.has_value());
  EXPECT_LT(*age, 60.0);
}

TEST(FsAtomic, StealHasExactlyOneWinner) {
  const std::string dir = temp_dir("netadv_fsatomic_steal");
  const std::string path = dir + "/claim";
  util::replace_file(path, "stale");
  EXPECT_TRUE(util::steal_file(path, dir + "/stolen.1"));
  // The second stealer finds the file gone — contended, not an error.
  EXPECT_FALSE(util::steal_file(path, dir + "/stolen.2"));
  EXPECT_EQ(read_file(dir + "/stolen.1"), "stale");
}

TEST(FsAtomic, FileAgeOfMissingFileIsEmpty) {
  EXPECT_FALSE(util::file_age_seconds("/nonexistent/netadv/claim"));
}

// ------------------------------------------------- multi-process manifest

TEST(ManifestMultiProcess, ConcurrentWriterProcessesInterleaveWholeLines) {
  const std::string dir = temp_dir("netadv_manifest_procs");
  const std::string path = dir + "/m.csv";
  constexpr int kWriters = 4;
  constexpr int kLines = 25;

  std::vector<pid_t> pids;
  for (int w = 0; w < kWriters; ++w) {
    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      // Child: its own kAppend writer, its own batch of entries. A long
      // artifact list makes each line big enough to expose partial-write
      // interleaving if append() were not a single write(2).
      exp::ManifestWriter writer{path, exp::ManifestWriter::Mode::kAppend};
      for (int i = 0; i < kLines; ++i) {
        exp::ManifestEntry entry;
        entry.campaign = "mp";
        entry.job = "w" + std::to_string(w) + "-j" + std::to_string(i);
        entry.kind = "emit";
        entry.status = "completed";
        entry.params_hash = std::string(16, 'a' + static_cast<char>(w));
        entry.inputs_hash = std::string(16, '0');
        for (int a = 0; a < 20; ++a) {
          entry.artifacts.push_back(dir + "/artifact_" + std::to_string(w) +
                                    "_" + std::to_string(i) + "_" +
                                    std::to_string(a) + ".txt");
        }
        writer.append(entry);
      }
      ::_exit(0);
    }
    pids.push_back(pid);
  }
  for (const pid_t pid : pids) {
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
  }

  const auto entries = exp::read_manifest(path);
  ASSERT_EQ(entries.size(),
            static_cast<std::size_t>(kWriters * kLines));
  for (const auto& entry : entries) {
    EXPECT_EQ(entry.campaign, "mp");
    EXPECT_EQ(entry.artifacts.size(), 20u);  // no line lost its tail
  }
}

TEST(ManifestMultiProcess, TornTrailingLineFromKilledWriterIsSkipped) {
  const std::string dir = temp_dir("netadv_manifest_torn");
  const std::string path = dir + "/m.csv";
  {
    exp::ManifestWriter writer{path, exp::ManifestWriter::Mode::kAppend};
    exp::ManifestEntry entry;
    entry.campaign = "torn";
    entry.job = "whole";
    entry.kind = "emit";
    entry.status = "completed";
    writer.append(entry);
  }
  // Simulate a worker killed mid-append: a partial line, no newline.
  {
    std::ofstream out{path, std::ios::app};
    out << "\ntorn,partial,emit,compl";
  }
  // The next worker's append must terminate the fragment, not merge with it.
  {
    exp::ManifestWriter writer{path, exp::ManifestWriter::Mode::kAppend};
    exp::ManifestEntry entry;
    entry.campaign = "torn";
    entry.job = "after-crash";
    entry.kind = "emit";
    entry.status = "completed";
    writer.append(entry);
  }
  const auto entries = exp::read_manifest(path);
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].job, "whole");
  EXPECT_EQ(entries[1].job, "after-crash");
}

TEST(ManifestMultiProcess, AppendModeKeepsExistingEntriesAndHeader) {
  const std::string dir = temp_dir("netadv_manifest_appendmode");
  const std::string path = dir + "/m.csv";
  {
    exp::ManifestWriter writer{path, exp::ManifestWriter::Mode::kAppend};
    exp::ManifestEntry entry;
    entry.campaign = "c";
    entry.job = "one";
    entry.kind = "emit";
    entry.status = "completed";
    writer.append(entry);
  }
  {
    exp::ManifestWriter writer{path, exp::ManifestWriter::Mode::kAppend};
    exp::ManifestEntry entry;
    entry.campaign = "c";
    entry.job = "two";
    entry.kind = "emit";
    entry.status = "completed";
    writer.append(entry);
  }
  const auto entries = exp::read_manifest(path);
  ASSERT_EQ(entries.size(), 2u);
  // Exactly one header: the second writer found a non-empty file.
  const std::string text = read_file(path);
  std::size_t headers = 0;
  for (std::size_t pos = 0;
       (pos = text.find("campaign,job,kind", pos)) != std::string::npos;
       ++pos) {
    ++headers;
  }
  EXPECT_EQ(headers, 1u);
}

// ------------------------------------------------------- derive_spool_view

TEST(SpoolView, EmptyManifestMakesRootsReadyAndDependentsWaiting) {
  const std::string dir = temp_dir("netadv_view_empty");
  const exp::Campaign c = diamond(dir);
  const exp::SpoolView view = exp::derive_spool_view(c, {});
  EXPECT_EQ(view.states[c.job_index("left")], exp::JobState::kReady);
  EXPECT_EQ(view.states[c.job_index("right")], exp::JobState::kReady);
  EXPECT_EQ(view.states[c.job_index("join")], exp::JobState::kWaiting);
  EXPECT_FALSE(view.all_settled);
}

TEST(SpoolView, SettledEntriesGateDependentsAndSettleTheCampaign) {
  const std::string dir = temp_dir("netadv_view_settled");
  exp::Campaign c = diamond(dir);
  // Run the campaign single-process, then re-derive from its manifest.
  exp::run_campaign(c, stub_registry());
  const auto entries = exp::read_manifest(exp::manifest_path(dir));
  const exp::SpoolView view = exp::derive_spool_view(c, entries);
  EXPECT_TRUE(view.all_settled);
  EXPECT_EQ(view.settled_ok, 3u);
  for (const auto s : view.states) EXPECT_EQ(s, exp::JobState::kSettledOk);
}

TEST(SpoolView, MissingArtifactUnsettlesTheJob) {
  const std::string dir = temp_dir("netadv_view_missing");
  exp::Campaign c = diamond(dir);
  exp::run_campaign(c, stub_registry());
  std::filesystem::remove(dir + "/left_out.txt");
  const auto entries = exp::read_manifest(exp::manifest_path(dir));
  const exp::SpoolView view = exp::derive_spool_view(c, entries);
  EXPECT_EQ(view.states[c.job_index("left")], exp::JobState::kReady);
  EXPECT_FALSE(view.all_settled);
}

TEST(SpoolView, MatchingFailedEntryIsTerminalAndBlocksDependents) {
  const std::string dir = temp_dir("netadv_view_failed");
  exp::Campaign c = campaign_from(
      "[campaign]\nname = f\nseed = 3\nout_dir = " + dir +
      "\n[job bad]\nkind = boom\n[job down]\nkind = concat\nafter = bad\n");
  exp::run_campaign(c, stub_registry());
  const auto entries = exp::read_manifest(exp::manifest_path(dir));
  const exp::SpoolView view = exp::derive_spool_view(c, entries);
  EXPECT_EQ(view.states[c.job_index("bad")], exp::JobState::kSettledFailed);
  // run_campaign wrote the blocked line with the params hash, so the
  // dependent is settled-blocked, not re-blockable.
  EXPECT_EQ(view.states[c.job_index("down")],
            exp::JobState::kSettledBlocked);
  EXPECT_TRUE(view.all_settled);
  EXPECT_EQ(view.settled_failed, 1u);
  EXPECT_EQ(view.settled_blocked, 1u);
}

// -------------------------------------------------------------- run_worker

TEST(Worker, SingleWorkerCompletesTheCampaign) {
  const std::string dir = temp_dir("netadv_worker_single");
  exp::SpoolOptions options;
  options.worker = "t1";
  const exp::WorkerReport report =
      exp::run_worker(diamond(dir), stub_registry(), options);
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.executed, 3u);
  EXPECT_EQ(report.settled_ok, 3u);
  EXPECT_NE(read_file(dir + "/join_out.txt").find("left:"),
            std::string::npos);
}

TEST(Worker, ArtifactsMatchSingleProcessRunByteForByte) {
  const std::string worker_dir = temp_dir("netadv_worker_bytes_w");
  const std::string solo_dir = temp_dir("netadv_worker_bytes_s");
  exp::run_worker(diamond(worker_dir), stub_registry());
  exp::run_campaign(diamond(solo_dir), stub_registry());
  for (const char* name : {"left_out.txt", "right_out.txt", "join_out.txt"}) {
    EXPECT_EQ(read_file(worker_dir + "/" + name),
              read_file(solo_dir + "/" + name))
        << name;
  }
}

TEST(Worker, SecondWorkerFindsEverythingSettledAndExecutesNothing) {
  const std::string dir = temp_dir("netadv_worker_second");
  exp::run_worker(diamond(dir), stub_registry());
  const exp::WorkerReport report =
      exp::run_worker(diamond(dir), stub_registry());
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.executed, 0u);
  EXPECT_EQ(report.settled_ok, 3u);
}

TEST(Worker, BreaksStaleClaimAndRunsTheJob) {
  const std::string dir = temp_dir("netadv_worker_stale");
  const exp::Campaign c = diamond(dir);
  // A dead worker's claim on a root job, planted old enough to be stale.
  std::filesystem::create_directories(exp::spool_dir(dir) + "/claims");
  const std::string claim = exp::claim_path(dir, "left");
  util::replace_file(claim, "worker=dead pid=0\n");
  std::filesystem::last_write_time(
      claim, std::filesystem::file_time_type::clock::now() -
                 std::chrono::hours(1));
  exp::SpoolOptions options;
  options.lease_s = 5.0;
  const exp::WorkerReport report =
      exp::run_worker(c, stub_registry(), options);
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.reclaimed, 1u);
  EXPECT_EQ(report.executed, 3u);
}

TEST(Worker, RejectsANonFiniteOrNonPositiveLease) {
  // A NaN lease fails every staleness check (a dead worker's claim would
  // block the fleet forever); an infinite one has no heartbeat period.
  const std::string dir = temp_dir("netadv_worker_badlease");
  for (const double lease : {std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::infinity(), 0.0,
                             -1.0}) {
    exp::SpoolOptions options;
    options.lease_s = lease;
    EXPECT_THROW(exp::run_worker(diamond(dir), stub_registry(), options),
                 std::invalid_argument)
        << lease;
  }
}

TEST(Worker, FreshClaimIsRespected) {
  const std::string dir = temp_dir("netadv_worker_freshclaim");
  const exp::Campaign c = diamond(dir);
  std::filesystem::create_directories(exp::spool_dir(dir) + "/claims");
  // A live (fresh) claim on `left`: the worker must not steal it. Run the
  // worker in a thread, let it finish right+wait, then settle `left` by
  // appending its manifest line the way the claim's owner would.
  util::replace_file(exp::claim_path(dir, "left"), "worker=live pid=0\n");
  exp::SpoolOptions options;
  options.worker = "t2";
  options.poll_ms = 20;
  exp::WorkerReport report;
  std::thread worker{[&] {
    report = exp::run_worker(c, stub_registry(), options);
  }};
  // Wait until the worker has settled the other root; then play the claim
  // owner: execute `left` through the shared path and release the claim.
  const std::string manifest = exp::manifest_path(dir);
  for (int i = 0; i < 500; ++i) {
    const auto entries = exp::read_manifest(manifest);
    bool right_done = false;
    for (const auto& e : entries) {
      if (e.job == "right" && e.status == "completed") right_done = true;
    }
    if (right_done) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  {
    exp::ManifestWriter writer{manifest,
                               exp::ManifestWriter::Mode::kAppend};
    const exp::JobRegistry registry = stub_registry();
    exp::JobRunner runner{c, registry, writer};
    runner.run(c.job_index("left"), {}, {});
  }
  std::filesystem::remove(exp::claim_path(dir, "left"));
  worker.join();
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.reclaimed, 0u);
  EXPECT_EQ(report.settled_ok, 3u);
  // The worker ran right + join; `left` was executed by the claim owner.
  EXPECT_EQ(report.executed, 2u);
}

TEST(Worker, FailedJobIsTerminalAndBlockedLineIsWrittenOnce) {
  const std::string dir = temp_dir("netadv_worker_failed");
  const exp::Campaign c = campaign_from(
      "[campaign]\nname = f\nseed = 3\nout_dir = " + dir +
      "\n[job bad]\nkind = boom\n[job down]\nkind = concat\nafter = bad\n");
  const exp::WorkerReport first = exp::run_worker(c, stub_registry());
  EXPECT_FALSE(first.ok());
  EXPECT_EQ(first.failed, 1u);
  EXPECT_EQ(first.blocked, 1u);
  // A second worker must not retry the failure or duplicate the blocked
  // line: same params + inputs -> terminal for this configuration.
  const exp::WorkerReport second = exp::run_worker(c, stub_registry());
  EXPECT_FALSE(second.ok());
  EXPECT_EQ(second.failed, 0u);
  EXPECT_EQ(second.blocked, 0u);
  const auto entries = exp::read_manifest(exp::manifest_path(dir));
  std::size_t failed = 0;
  std::size_t blocked = 0;
  for (const auto& e : entries) {
    if (e.status == "failed") ++failed;
    if (e.status == "blocked") ++blocked;
  }
  EXPECT_EQ(failed, 1u);
  EXPECT_EQ(blocked, 1u);
}

TEST(Worker, ChangedDependencyOutputInvalidatesDependentAcrossWorkers) {
  const std::string dir = temp_dir("netadv_worker_invalidate");
  const exp::Campaign c = diamond(dir);
  exp::run_worker(c, stub_registry());
  // Another worker's world changes under us: `left`'s artifact is
  // rewritten with different bytes (as a re-run with changed params would).
  std::ofstream{dir + "/left_out.txt"} << "left:rewritten";
  const exp::WorkerReport report = exp::run_worker(c, stub_registry());
  EXPECT_TRUE(report.ok());
  // `join`'s inputs_hash over the actual bytes no longer matches its
  // manifest entry, so it re-ran; left/right stayed settled.
  EXPECT_EQ(report.executed, 1u);
  EXPECT_NE(read_file(dir + "/join_out.txt").find("left:rewritten"),
            std::string::npos);
}

/// Every artifact in `dir`, keyed by file name; the manifest (it records
/// wall-clock and worker names) and the spool directory are left out.
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

TEST(Worker, ThreeConcurrentWorkersPartitionTheDag) {
  // A wider DAG so all three workers can actually claim something.
  const auto wide = [](const std::string& dir) {
    std::string spec =
        "[campaign]\nname = wide\nseed = 7\nout_dir = " + dir + "\n";
    for (int i = 0; i < 6; ++i) {
      spec += "[job root" + std::to_string(i) + "]\nkind = emit\n";
    }
    spec += "[job join]\nkind = concat\nafter = root0, root1, root2, root3, "
            "root4, root5\n";
    return campaign_from(spec);
  };
  const std::string dir = temp_dir("netadv_worker_trio");
  const exp::Campaign c = wide(dir);
  exp::WorkerReport reports[3];
  std::vector<std::thread> workers;
  for (int w = 0; w < 3; ++w) {
    workers.emplace_back([&, w] {
      exp::SpoolOptions options;
      options.worker = "t" + std::to_string(w);
      options.poll_ms = 10;
      reports[w] = exp::run_worker(c, stub_registry(), options);
    });
  }
  for (auto& t : workers) t.join();
  std::size_t executed = 0;
  for (const auto& report : reports) {
    EXPECT_TRUE(report.ok());
    EXPECT_EQ(report.settled_ok, 7u);
    executed += report.executed;
  }
  // Exactly one worker executed each job: claims are exclusive.
  EXPECT_EQ(executed, 7u);
  const auto entries = exp::read_manifest(exp::manifest_path(dir));
  EXPECT_EQ(entries.size(), 7u);

  // However the fleet split the DAG, it wrote what a single-process run
  // writes, byte for byte.
  const std::string solo_dir = temp_dir("netadv_worker_trio_solo");
  ASSERT_TRUE(exp::run_campaign(wide(solo_dir), stub_registry()).ok());
  const auto solo = artifacts_in(solo_dir);
  EXPECT_EQ(solo.size(), 7u);
  EXPECT_EQ(artifacts_in(dir), solo);
}

}  // namespace
