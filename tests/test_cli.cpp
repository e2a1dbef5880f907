// End-to-end tests of the netadv_cli binary: the usage/exit-code contract
// (0 success, 1 runtime error, 2 usage error), the gen / eval / cc /
// mm-export / campaign --dry-run commands, and the `info` report. The binary
// path is injected at configure time via NETADV_CLI_PATH.
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>

#include "rl/kernels.hpp"

namespace {

namespace kr = netadv::rl::kernels;

std::string cli_path() { return NETADV_CLI_PATH; }

std::string out_dir() {
  const std::string dir =
      (std::filesystem::temp_directory_path() / "netadv_cli_test").string();
  std::filesystem::create_directories(dir);
  return dir;
}

/// Run the CLI with `args`, capture stdout+stderr into `output`, and return
/// the exit code (-1 if the process did not exit normally). `env` is an
/// optional `VAR=value` prefix applied to the child only.
int run_cli(const std::string& args, std::string* output = nullptr,
            const std::string& env = "") {
  // Per-process capture file: ctest runs these tests as parallel processes
  // sharing one temp dir, so a fixed name would interleave captures.
  const std::string capture =
      out_dir() + "/output." + std::to_string(::getpid()) + ".txt";
  const std::string command = (env.empty() ? "" : "env " + env + " ") +
                              cli_path() + " " + args + " > " + capture +
                              " 2>&1";
  const int status = std::system(command.c_str());
  if (output != nullptr) {
    std::ifstream in{capture};
    output->assign(std::istreambuf_iterator<char>(in),
                   std::istreambuf_iterator<char>());
  }
  if (!WIFEXITED(status)) return -1;
  return WEXITSTATUS(status);
}

TEST(Cli, NoArgumentsIsAUsageError) {
  std::string output;
  EXPECT_EQ(run_cli("", &output), 2);
  EXPECT_NE(output.find("usage:"), std::string::npos);
}

TEST(Cli, UnknownCommandIsAUsageError) {
  EXPECT_EQ(run_cli("frobnicate"), 2);
}

TEST(Cli, UnknownProtocolIsAUsageError) {
  EXPECT_EQ(run_cli("eval no-such-protocol /dev/null"), 2);
}

TEST(Cli, ListPrintsEveryRegistryWithDomains) {
  std::string output;
  ASSERT_EQ(run_cli("list", &output), 0);
  EXPECT_NE(output.find("ABR protocols:"), std::string::npos);
  EXPECT_NE(output.find("CC senders:"), std::string::npos);
  EXPECT_NE(output.find("trace generators:"), std::string::npos);
  EXPECT_NE(output.find("adversary kinds:"), std::string::npos);
  EXPECT_NE(output.find("campaign job kinds:"), std::string::npos);
  for (const char* name : {"pensieve", "vivace", "3g", "cem", "gen-traces"}) {
    EXPECT_NE(output.find(name), std::string::npos) << name;
  }
  // Domain column: bbr is a cc entry, ppo is domain-neutral.
  EXPECT_NE(output.find("cc"), std::string::npos);
  EXPECT_NE(output.find("any"), std::string::npos);
}

TEST(Cli, ListAcceptsASingleCategory) {
  std::string output;
  ASSERT_EQ(run_cli("list senders", &output), 0);
  EXPECT_NE(output.find("cubic"), std::string::npos);
  EXPECT_EQ(output.find("ABR protocols:"), std::string::npos);
}

TEST(Cli, ListUnknownCategoryIsAUsageError) {
  std::string output;
  EXPECT_EQ(run_cli("list frobnicators", &output), 2);
  EXPECT_NE(output.find("unknown category"), std::string::npos);
}

TEST(Cli, KnownEntryWithFailingFactoryIsARuntimeError) {
  // `pensieve` is a registered name (not a usage error), but resolving it
  // without a checkpoint fails at construction time: exit 1.
  std::string output;
  EXPECT_EQ(run_cli("eval pensieve /dev/null", &output), 1);
  EXPECT_NE(output.find("checkpoint"), std::string::npos);
}

TEST(Cli, GenWritesTraceFiles) {
  const std::string prefix = out_dir() + "/gen";
  std::string output;
  ASSERT_EQ(run_cli("gen random 2 " + prefix, &output), 0);
  EXPECT_TRUE(std::filesystem::exists(prefix + "_0.csv"));
  EXPECT_TRUE(std::filesystem::exists(prefix + "_1.csv"));
  EXPECT_NE(output.find("wrote"), std::string::npos);
}

TEST(Cli, EvalReportsQoeOnAGeneratedTrace) {
  const std::string prefix = out_dir() + "/eval";
  ASSERT_EQ(run_cli("gen fcc 1 " + prefix), 0);
  std::string output;
  EXPECT_EQ(run_cli("eval bb " + prefix + "_0.csv", &output), 0);
  EXPECT_NE(output.find("QoE"), std::string::npos);
  EXPECT_NE(output.find("offline optimum"), std::string::npos);
}

TEST(Cli, CcReplaysATraceAgainstOneSender) {
  const std::string prefix = out_dir() + "/cc";
  ASSERT_EQ(run_cli("gen random 1 " + prefix), 0);
  std::string output;
  EXPECT_EQ(run_cli("cc bbr " + prefix + "_0.csv", &output), 0);
  EXPECT_NE(output.find("mean throughput"), std::string::npos) << output;
  EXPECT_NE(output.find("mean utilization"), std::string::npos) << output;
  EXPECT_EQ(run_cli("cc no-such-sender " + prefix + "_0.csv"), 2);
}

TEST(Cli, EvalOnMissingTraceIsARuntimeError) {
  std::string output;
  EXPECT_EQ(run_cli("eval bb /tmp/netadv_no_such_trace.csv", &output), 1);
  EXPECT_NE(output.find("error:"), std::string::npos);
}

TEST(Cli, ListQoeModelsCategory) {
  std::string output;
  ASSERT_EQ(run_cli("list qoe", &output), 0);
  EXPECT_NE(output.find("QoE models:"), std::string::npos);
  for (const char* name : {"lin", "log", "ssim"}) {
    EXPECT_NE(output.find(name), std::string::npos) << name;
  }
  EXPECT_EQ(output.find("ABR protocols:"), std::string::npos);
  // The bare `list` includes the QoE table too (docs_lint diffs it against
  // README's registry block).
  std::string all;
  ASSERT_EQ(run_cli("list", &all), 0);
  EXPECT_NE(all.find("QoE models:"), std::string::npos);
  EXPECT_NE(all.find("mpc-dp"), std::string::npos);
}

TEST(Cli, ServeRunsSessionsAndWritesSummaries) {
  const std::string prefix = out_dir() + "/serve";
  ASSERT_EQ(run_cli("gen fcc 1 " + prefix), 0);
  const std::string out = out_dir() + "/serve_sessions.csv";
  std::string output;
  ASSERT_EQ(
      run_cli("serve mpc-dp ssim 4 " + prefix + "_0.csv " + out, &output), 0);
  EXPECT_NE(output.find("mean QoE"), std::string::npos);
  EXPECT_NE(output.find("decisions/s"), std::string::npos);
  ASSERT_TRUE(std::filesystem::exists(out));
  std::ifstream in{out};
  std::string header;
  std::getline(in, header);
  EXPECT_EQ(header,
            "session,trace,chunks,qoe,qoe_lin,rebuffer_s,mean_bitrate_mbps,"
            "quality_switches");
}

TEST(Cli, ServeValidatesNamesAndArity) {
  EXPECT_EQ(run_cli("serve bb"), 2);
  EXPECT_EQ(run_cli("serve warp lin 4 /dev/null"), 2);
  EXPECT_EQ(run_cli("serve bb vmaf 4 /dev/null"), 2);
  // Known names but a missing trace: runtime error, not usage.
  EXPECT_EQ(run_cli("serve bb lin 4 /tmp/netadv_no_such_trace.csv"), 1);
}

TEST(Cli, PositionalCountsMustBeUnsignedIntegers) {
  // "2x" is not truncated to 2 and "-1" is not wrapped to 2^64 - 1: both
  // are usage errors that name the argument.
  const std::string prefix = out_dir() + "/badcount";
  std::filesystem::remove(prefix + "_0.csv");
  std::string output;
  EXPECT_EQ(run_cli("gen fcc 2x " + prefix, &output), 2);
  EXPECT_NE(output.find("<count>"), std::string::npos) << output;
  EXPECT_FALSE(std::filesystem::exists(prefix + "_0.csv"));
  EXPECT_EQ(run_cli("serve mpc lin -1 /tmp/netadv_no_such_trace.csv " +
                        prefix + "_sessions.csv",
                    &output),
            2);
  EXPECT_NE(output.find("<sessions>"), std::string::npos) << output;
}

TEST(Cli, MahimahiExportRoundTrips) {
  const std::string prefix = out_dir() + "/mm";
  ASSERT_EQ(run_cli("gen 3g 1 " + prefix), 0);
  const std::string exported = out_dir() + "/mm.trace";
  EXPECT_EQ(run_cli("mm-export " + prefix + "_0.csv " + exported), 0);
  EXPECT_TRUE(std::filesystem::exists(exported));
}

TEST(Cli, CampaignDryRunPrintsThePlanWithoutArtifacts) {
  const std::string spec = out_dir() + "/dry.campaign";
  const std::string campaign_out = out_dir() + "/dry_out";
  std::filesystem::remove_all(campaign_out);
  std::ofstream{spec} << "[campaign]\nname = dry\nout_dir = " << campaign_out
                      << "\n[job corpus]\nkind = gen-traces\n"
                      << "generator = random\ncount = 2\n"
                      << "[job replay-bb]\nkind = replay\nafter = corpus\n"
                      << "traces = corpus\nprotocol = bb\n";
  std::string output;
  EXPECT_EQ(run_cli("campaign " + spec + " --dry-run", &output), 0);
  EXPECT_NE(output.find("wave 1"), std::string::npos);
  EXPECT_NE(output.find("wave 2"), std::string::npos);
  EXPECT_NE(output.find("replay-bb"), std::string::npos);
  // Dry runs must not create the out_dir or any artifacts.
  EXPECT_FALSE(std::filesystem::exists(campaign_out));
}

TEST(Cli, CampaignRunsAndResumes) {
  const std::string spec = out_dir() + "/run.campaign";
  const std::string campaign_out = out_dir() + "/run_out";
  std::filesystem::remove_all(campaign_out);
  std::ofstream{spec} << "[campaign]\nname = run\nout_dir = " << campaign_out
                      << "\n[job corpus]\nkind = gen-traces\n"
                      << "generator = random\ncount = 2\n";
  std::string output;
  EXPECT_EQ(run_cli("campaign " + spec, &output), 0);
  EXPECT_NE(output.find("1 completed"), std::string::npos);
  EXPECT_TRUE(std::filesystem::exists(campaign_out + "/corpus_traces.csv"));
  EXPECT_EQ(run_cli("campaign " + spec + " --resume", &output), 0);
  EXPECT_NE(output.find("1 cached"), std::string::npos);
}

TEST(Cli, CampaignStatusRendersTheSpoolView) {
  const std::string spec = out_dir() + "/status.campaign";
  const std::string campaign_out = out_dir() + "/status_out";
  std::filesystem::remove_all(campaign_out);
  std::ofstream{spec} << "[campaign]\nname = st\nout_dir = " << campaign_out
                      << "\n[job corpus]\nkind = gen-traces\n"
                      << "generator = random\ncount = 2\n"
                      << "[job replay-bb]\nkind = replay\nafter = corpus\n"
                      << "traces = corpus\nprotocol = bb\n";
  // Before any run: everything waiting/ready, nothing settled, exit 0
  // (pending is not failure), and no artifacts created by looking.
  std::string output;
  EXPECT_EQ(run_cli("campaign status " + spec, &output), 0);
  EXPECT_NE(output.find("ready"), std::string::npos);
  EXPECT_NE(output.find("waiting"), std::string::npos);
  EXPECT_NE(output.find("settled 0/2"), std::string::npos);
  EXPECT_FALSE(std::filesystem::exists(campaign_out));

  EXPECT_EQ(run_cli("campaign " + spec), 0);
  EXPECT_EQ(run_cli("campaign status " + spec, &output), 0);
  EXPECT_NE(output.find("settled 2/2: 2 ok, 0 failed, 0 blocked"),
            std::string::npos);
  EXPECT_NE(output.find("all settled"), std::string::npos);
}

TEST(Cli, CampaignStatusReportsFailuresWithExitOne) {
  const std::string spec = out_dir() + "/status_fail.campaign";
  const std::string campaign_out = out_dir() + "/status_fail_out";
  std::filesystem::remove_all(campaign_out);
  // replay with no trace input fails at execution time and blocks nothing
  // downstream of it here.
  std::ofstream{spec} << "[campaign]\nname = stf\nout_dir = " << campaign_out
                      << "\n[job corpus]\nkind = gen-traces\n"
                      << "generator = random\ncount = 2\n"
                      << "[job broken]\nkind = replay\nafter = corpus\n"
                      << "protocol = bb\n";
  EXPECT_EQ(run_cli("campaign " + spec), 1);
  std::string output;
  EXPECT_EQ(run_cli("campaign status " + spec, &output), 1);
  EXPECT_NE(output.find("failed"), std::string::npos);
}

TEST(Cli, CampaignStatusArityIsAUsageError) {
  EXPECT_EQ(run_cli("campaign status"), 2);
  EXPECT_EQ(run_cli("campaign status a b"), 2);
}

TEST(Cli, CampaignOnMissingSpecIsARuntimeError) {
  EXPECT_EQ(run_cli("campaign /tmp/netadv_no_such.campaign"), 1);
}

TEST(Cli, CampaignUnknownFlagIsAUsageError) {
  EXPECT_EQ(run_cli("campaign spec --frobnicate"), 2);
}

TEST(Cli, CampaignWorkerRunsAndASecondWorkerFindsItSettled) {
  const std::string spec = out_dir() + "/worker.campaign";
  const std::string campaign_out = out_dir() + "/worker_out";
  std::filesystem::remove_all(campaign_out);
  std::ofstream{spec} << "[campaign]\nname = w\nout_dir = " << campaign_out
                      << "\n[job corpus]\nkind = gen-traces\n"
                      << "generator = random\ncount = 2\n";
  std::string output;
  EXPECT_EQ(run_cli("campaign " + spec + " --worker", &output), 0);
  EXPECT_NE(output.find("1 ok"), std::string::npos);
  EXPECT_NE(output.find("1 executed"), std::string::npos);
  EXPECT_TRUE(std::filesystem::exists(campaign_out + "/corpus_traces.csv"));
  // A second worker joins an already-settled campaign: nothing to do, same
  // whole-campaign verdict.
  EXPECT_EQ(run_cli("campaign " + spec + " --worker", &output), 0);
  EXPECT_NE(output.find("0 executed"), std::string::npos);
}

TEST(Cli, CampaignSpawnWorkersRunsAFleet) {
  const std::string spec = out_dir() + "/fleet.campaign";
  const std::string campaign_out = out_dir() + "/fleet_out";
  std::filesystem::remove_all(campaign_out);
  std::ofstream{spec} << "[campaign]\nname = fleet\nout_dir = "
                      << campaign_out
                      << "\n[job corpus]\nkind = gen-traces\n"
                      << "generator = random\ncount = 2\n"
                      << "[job corpus2]\nkind = gen-traces\n"
                      << "generator = 3g\ncount = 2\n";
  std::string output;
  EXPECT_EQ(run_cli("campaign " + spec + " --spawn-workers 2 --poll-ms 20",
                    &output),
            0);
  EXPECT_NE(output.find("2 worker(s) finished, verdict ok"),
            std::string::npos);
  EXPECT_TRUE(std::filesystem::exists(campaign_out + "/corpus_traces.csv"));
  EXPECT_TRUE(std::filesystem::exists(campaign_out + "/corpus2_traces.csv"));
}

TEST(Cli, CampaignWorkerFlagValidation) {
  // Value-taking flags reject garbage and missing values; mode conflicts
  // are usage errors.
  EXPECT_EQ(run_cli("campaign spec --spawn-workers"), 2);
  EXPECT_EQ(run_cli("campaign spec --spawn-workers zero"), 2);
  EXPECT_EQ(run_cli("campaign spec --spawn-workers 0"), 2);
  EXPECT_EQ(run_cli("campaign spec --lease -1"), 2);
  EXPECT_EQ(run_cli("campaign spec --poll-ms 0"), 2);
  // A NaN lease never expires a dead worker's claim; an infinite or huge
  // one cannot be turned into a heartbeat period. Prefixes are not numbers.
  EXPECT_EQ(run_cli("campaign spec --lease nan"), 2);
  EXPECT_EQ(run_cli("campaign spec --lease inf"), 2);
  EXPECT_EQ(run_cli("campaign spec --lease 1e10"), 2);
  EXPECT_EQ(run_cli("campaign spec --spawn-workers 2x"), 2);
  EXPECT_EQ(run_cli("campaign spec --poll-ms 50ms"), 2);
  EXPECT_EQ(run_cli("campaign spec --worker --spawn-workers 2"), 2);
  EXPECT_EQ(run_cli("campaign spec --worker --dry-run"), 2);
}

TEST(Cli, InfoReportsBackendsAndKnobResolution) {
  std::string output;
  ASSERT_EQ(run_cli("info", &output), 0);
  EXPECT_NE(output.find("kernel backends"), std::string::npos);
  for (const kr::Backend* backend : kr::available_backends()) {
    EXPECT_NE(output.find(std::string("\n  ") + backend->name),
              std::string::npos)
        << backend->name << "\n"
        << output;
  }
  EXPECT_NE(output.find("<- active"), std::string::npos);
  EXPECT_NE(output.find("NETADV_THREADS"), std::string::npos);
  EXPECT_NE(output.find("NETADV_SCALE"), std::string::npos);
}

TEST(Cli, InfoWarnsOnUnusableThreadCounts) {
  // Anything but a plain positive integer falls back to the hardware count
  // with a warning naming the variable and the value; an oversized count is
  // capped rather than honored (it used to end in bad_alloc).
  for (const std::string value : {"4x", "abc", "0", "-3"}) {
    std::string output;
    ASSERT_EQ(run_cli("info", &output, "NETADV_THREADS=" + value), 0);
    EXPECT_NE(output.find("NETADV_THREADS='" + value + "'"), std::string::npos)
        << output;
    EXPECT_NE(output.find("using the hardware count"), std::string::npos)
        << output;
  }
  std::string output;
  ASSERT_EQ(run_cli("info", &output, "NETADV_THREADS=99999999999"), 0);
  EXPECT_NE(output.find("NETADV_THREADS=99999999999 exceeds"),
            std::string::npos)
      << output;
  EXPECT_NE(output.find("99999999999 -> 256 lanes"), std::string::npos)
      << output;

  ASSERT_EQ(run_cli("info", &output, "NETADV_THREADS=3"), 0);
  EXPECT_NE(output.find("3 -> 3 lanes"), std::string::npos) << output;
  EXPECT_EQ(output.find("WARN"), std::string::npos) << output;
}

TEST(Cli, InfoWarnsOnUnusableScale) {
  for (const std::string value : {"0.5x", "abc", "0", "-1", "nan"}) {
    std::string output;
    ASSERT_EQ(run_cli("info", &output, "NETADV_SCALE=" + value), 0);
    EXPECT_NE(output.find("NETADV_SCALE='" + value + "'"), std::string::npos)
        << output;
    EXPECT_NE(output.find(value + " -> 1\n"), std::string::npos) << output;
  }
  std::string output;
  ASSERT_EQ(run_cli("info", &output, "NETADV_SCALE=1e9"), 0);
  EXPECT_NE(output.find("NETADV_SCALE=1e9 is outside"), std::string::npos)
      << output;
  EXPECT_NE(output.find("1e9 -> 100\n"), std::string::npos) << output;

  ASSERT_EQ(run_cli("info", &output, "NETADV_SCALE=0.25"), 0);
  EXPECT_NE(output.find("0.25 -> 0.25\n"), std::string::npos) << output;
  EXPECT_EQ(output.find("WARN"), std::string::npos) << output;
}

TEST(Cli, InfoWithArgumentsIsAUsageError) {
  EXPECT_EQ(run_cli("info extra"), 2);
}

TEST(Cli, InfoIgnoresTheRemovedSimdVariable) {
  // No environment variable selects the kernel backend: the widest one this
  // CPU runs is always the active one.
  std::string output;
  ASSERT_EQ(run_cli("info", &output, "NETADV_SIMD=off"), 0);
  EXPECT_NE(output.find(std::string("  ") +
                        kr::available_backends().back()->name +
                        "   <- active\n"),
            std::string::npos)
      << output;
  EXPECT_EQ(output.find("WARN"), std::string::npos) << output;
}

TEST(Cli, InfoPrintsNoFallbackNoteForAnUnrunnableSimdValue) {
  // Naming a backend this host cannot run used to log a fallback note; the
  // variable is no longer read, so info neither complains nor changes the
  // active backend.
  const auto backends = kr::available_backends();
  const bool neon_available =
      std::any_of(backends.begin(), backends.end(),
                  [](const kr::Backend* b) {
                    return std::string(b->name) == "neon";
                  });
  const std::string forced = neon_available ? "avx512" : "neon";
  std::string output;
  ASSERT_EQ(run_cli("info", &output, "NETADV_SIMD=" + forced), 0);
  EXPECT_EQ(output.find("falling back"), std::string::npos) << output;
  EXPECT_EQ(output.find("NETADV_SIMD"), std::string::npos) << output;
  EXPECT_NE(output.find(std::string("  ") + backends.back()->name +
                        "   <- active\n"),
            std::string::npos)
      << output;
}

}  // namespace
