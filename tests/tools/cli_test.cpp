#include "tools/cli.h"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "scratch_dir.h"

namespace powerlim::cli {
namespace {

struct CliResult {
  int code;
  std::string out;
  std::string err;
};

CliResult run_cli(std::vector<std::string> args) {
  std::ostringstream out, err;
  const int code = run(args, out, err);
  return {code, out.str(), err.str()};
}

/// Gives every test its own scratch directory for the files it writes.
class CliTest : public ::testing::Test {
 protected:
  void SetUp() override { ASSERT_TRUE(scratch_.ok()); }

  std::string temp_path(const std::string& name) const {
    return scratch_.path(name);
  }
  std::string temp_trace() const { return temp_path("cli_trace.txt"); }
  std::string write_fixture(const std::string& name,
                            const std::string& text) const {
    const std::string path = temp_path(name);
    std::ofstream f(path);
    f << text;
    return path;
  }

 private:
  ScratchDir scratch_{"cli"};
};

using Cli = CliTest;
using CliLint = CliTest;

TEST_F(Cli, NoArgsPrintsUsage) {
  const CliResult r = run_cli({});
  EXPECT_NE(r.code, 0);
  EXPECT_NE(r.out.find("usage:"), std::string::npos);
}

TEST_F(Cli, HelpIsSuccess) {
  const CliResult r = run_cli({"help"});
  EXPECT_EQ(r.code, 0);
  EXPECT_NE(r.out.find("usage:"), std::string::npos);
}

TEST_F(Cli, UnknownCommandFails) {
  const CliResult r = run_cli({"frobnicate"});
  EXPECT_NE(r.code, 0);
  EXPECT_NE(r.err.find("unknown command"), std::string::npos);
}

TEST_F(Cli, TraceRequiresOutput) {
  const CliResult r = run_cli({"trace", "comd"});
  EXPECT_NE(r.code, 0);
  EXPECT_NE(r.err.find("-o"), std::string::npos);
}

TEST_F(Cli, TraceUnknownAppFails) {
  const CliResult r = run_cli({"trace", "doom", "-o", temp_trace()});
  EXPECT_NE(r.code, 0);
  EXPECT_NE(r.err.find("unknown app"), std::string::npos);
}

TEST_F(Cli, TraceThenInfo) {
  const CliResult w = run_cli({"trace", "comd", "-o", temp_trace(),
                               "--ranks", "4", "--iterations", "5"});
  ASSERT_EQ(w.code, 0) << w.err;
  EXPECT_NE(w.out.find("wrote"), std::string::npos);

  const CliResult i = run_cli({"info", temp_trace()});
  ASSERT_EQ(i.code, 0) << i.err;
  EXPECT_NE(i.out.find("ranks"), std::string::npos);
  EXPECT_NE(i.out.find("4"), std::string::npos);
  EXPECT_NE(i.out.find("min schedulable power"), std::string::npos);
}

TEST_F(Cli, BoundValidatesSchedule) {
  ASSERT_EQ(run_cli({"trace", "bt", "-o", temp_trace(), "--ranks", "4",
                     "--iterations", "5"})
                .code,
            0);
  const CliResult b = run_cli({"bound", temp_trace(), "--socket-cap", "45"});
  ASSERT_EQ(b.code, 0) << b.err;
  EXPECT_NE(b.out.find("LP bound"), std::string::npos);
  EXPECT_NE(b.out.find("replay peak power"), std::string::npos);
}

TEST_F(Cli, BoundInfeasibleCapReturnsError) {
  ASSERT_EQ(run_cli({"trace", "comd", "-o", temp_trace(), "--ranks", "2",
                     "--iterations", "3"})
                .code,
            0);
  const CliResult b = run_cli({"bound", temp_trace(), "--socket-cap", "5"});
  EXPECT_EQ(b.code, 1);
  EXPECT_NE(b.err.find("infeasible"), std::string::npos);
}

TEST_F(Cli, BoundRequiresCap) {
  ASSERT_EQ(run_cli({"trace", "comd", "-o", temp_trace(), "--ranks", "2",
                     "--iterations", "3"})
                .code,
            0);
  const CliResult b = run_cli({"bound", temp_trace()});
  EXPECT_NE(b.code, 0);
}

TEST_F(Cli, CompareListsAllMethods) {
  ASSERT_EQ(run_cli({"trace", "bt", "-o", temp_trace(), "--ranks", "4",
                     "--iterations", "6"})
                .code,
            0);
  const CliResult c = run_cli({"compare", temp_trace(), "--socket-cap", "45"});
  ASSERT_EQ(c.code, 0) << c.err;
  for (const char* m : {"Static", "Adagio", "Conductor", "LP bound"}) {
    EXPECT_NE(c.out.find(m), std::string::npos) << m;
  }
}

TEST_F(Cli, SweepMarksInfeasibleCaps) {
  ASSERT_EQ(run_cli({"trace", "comd", "-o", temp_trace(), "--ranks", "2",
                     "--iterations", "3"})
                .code,
            0);
  const CliResult s = run_cli({"sweep", temp_trace(), "--from", "10", "--to",
                               "60", "--step", "25"});
  ASSERT_EQ(s.code, 0) << s.err;
  EXPECT_NE(s.out.find("n/s"), std::string::npos);   // 10 W infeasible
  EXPECT_NE(s.out.find("0.0%"), std::string::npos);  // best cap row
}

TEST_F(Cli, SweepWithInjectedFailureDegradesInsteadOfAborting) {
  ASSERT_EQ(run_cli({"trace", "comd", "-o", temp_trace(), "--ranks", "2",
                     "--iterations", "3"})
                .code,
            0);
  const std::string report = temp_path("cli_sweep_report.json");
  const CliResult s =
      run_cli({"sweep", temp_trace(), "--from", "10", "--to", "60", "--step",
               "25", "--inject-fail", "35", "--report", report});
  // Partial results are success: the failing cap degrades, the sweep
  // completes, exit code stays 0.
  ASSERT_EQ(s.code, 0) << s.err;
  EXPECT_NE(s.out.find("degraded (static-policy)"), std::string::npos)
      << s.out;
  EXPECT_NE(s.out.find("ok"), std::string::npos);
  EXPECT_NE(s.out.find("n/s"), std::string::npos);

  // The RunReport artifact carries the per-cap verdicts and attempts.
  std::ifstream f(report);
  ASSERT_TRUE(f.good());
  std::stringstream json;
  json << f.rdbuf();
  EXPECT_NE(json.str().find("\"verdict\":\"solver-numerical\""),
            std::string::npos);
  EXPECT_NE(json.str().find("\"fallback\":\"static-policy\""),
            std::string::npos);
  EXPECT_NE(json.str().find("\"rung\":\"bland\""), std::string::npos);
  EXPECT_NE(json.str().find("\"verdict\":\"ok\""), std::string::npos);
}

TEST_F(Cli, SweepVerdictColumnPresent) {
  ASSERT_EQ(run_cli({"trace", "comd", "-o", temp_trace(), "--ranks", "2",
                     "--iterations", "3"})
                .code,
            0);
  const CliResult s = run_cli({"sweep", temp_trace(), "--from", "10", "--to",
                               "60", "--step", "25"});
  ASSERT_EQ(s.code, 0) << s.err;
  EXPECT_NE(s.out.find("verdict"), std::string::npos);
  EXPECT_NE(s.out.find("infeasible"), std::string::npos);
}

TEST_F(Cli, BoundWritesRunReportNextToSchedule) {
  ASSERT_EQ(run_cli({"trace", "bt", "-o", temp_trace(), "--ranks", "3",
                     "--iterations", "3"})
                .code,
            0);
  const std::string sched = temp_path("cli_report.sched");
  const CliResult b = run_cli({"bound", temp_trace(), "--socket-cap", "45",
                               "-o", sched});
  ASSERT_EQ(b.code, 0) << b.err;
  std::ifstream f(sched + ".runreport.json");
  ASSERT_TRUE(f.good());
  std::stringstream json;
  json << f.rdbuf();
  EXPECT_NE(json.str().find("\"verdict\":\"ok\""), std::string::npos);
  EXPECT_NE(json.str().find("\"replay\":{\"checked\":true"),
            std::string::npos);
}

TEST_F(Cli, BoundOnCorruptTraceNamesLine) {
  const std::string path = temp_path("cli_corrupt.trace");
  {
    std::ofstream f(path);
    f << "powerlim-trace 1\nranks 1\nvertex 0 init -1\nvertex 1 finalize -1\n"
         "task 0 1 0 0 NOT_A_NUMBER 0.0 0.9 4 0.0 8\n";
  }
  const CliResult b = run_cli({"bound", path, "--socket-cap", "45"});
  EXPECT_EQ(b.code, 1);
  EXPECT_NE(b.err.find("line 5"), std::string::npos) << b.err;
  EXPECT_NE(b.err.find("NOT_A_NUMBER"), std::string::npos) << b.err;
}

TEST_F(Cli, MissingTraceFileErrors) {
  const CliResult r = run_cli({"info", "/nonexistent/trace.txt"});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("error:"), std::string::npos);
}

TEST_F(Cli, UnknownOptionRejected) {
  const CliResult r = run_cli({"trace", "comd", "-o", temp_trace(),
                               "--bogus", "7"});
  EXPECT_NE(r.code, 0);
  EXPECT_NE(r.err.find("unknown option"), std::string::npos);
}

TEST_F(Cli, ExchangeTraceRoundTrips) {
  ASSERT_EQ(run_cli({"trace", "exchange", "-o", temp_trace()}).code, 0);
  const CliResult i = run_cli({"info", temp_trace()});
  ASSERT_EQ(i.code, 0);
  EXPECT_NE(i.out.find("2"), std::string::npos);  // 2 ranks
}


TEST_F(Cli, TimelineRendersLanes) {
  ASSERT_EQ(run_cli({"trace", "bt", "-o", temp_trace(), "--ranks", "3",
                     "--iterations", "4"})
                .code,
            0);
  const CliResult t = run_cli({"timeline", temp_trace(), "--socket-cap",
                               "45", "--method", "static", "--width", "40"});
  ASSERT_EQ(t.code, 0) << t.err;
  EXPECT_NE(t.out.find("r0"), std::string::npos);
  EXPECT_NE(t.out.find('#'), std::string::npos);
}

TEST_F(Cli, TimelineUnknownMethodFails) {
  ASSERT_EQ(run_cli({"trace", "comd", "-o", temp_trace(), "--ranks", "2",
                     "--iterations", "3"})
                .code,
            0);
  const CliResult t = run_cli({"timeline", temp_trace(), "--socket-cap",
                               "45", "--method", "warp"});
  EXPECT_NE(t.code, 0);
  EXPECT_NE(t.err.find("unknown method"), std::string::npos);
}

TEST_F(Cli, ExportWritesCsvPair) {
  ASSERT_EQ(run_cli({"trace", "comd", "-o", temp_trace(), "--ranks", "2",
                     "--iterations", "3"})
                .code,
            0);
  const std::string prefix = temp_path("cli_export");
  const CliResult e = run_cli({"export", temp_trace(), "--socket-cap", "45",
                               "-o", prefix});
  ASSERT_EQ(e.code, 0) << e.err;
  std::ifstream gantt(prefix + ".gantt.csv"), power(prefix + ".power.csv");
  EXPECT_TRUE(gantt.good());
  EXPECT_TRUE(power.good());
  std::string header;
  std::getline(gantt, header);
  EXPECT_NE(header.find("edge,rank"), std::string::npos);
}


TEST_F(Cli, AnalyzeReportsImbalance) {
  ASSERT_EQ(run_cli({"trace", "bt", "-o", temp_trace(), "--ranks", "4",
                     "--iterations", "3"})
                .code,
            0);
  const CliResult a = run_cli({"analyze", temp_trace()});
  ASSERT_EQ(a.code, 0) << a.err;
  EXPECT_NE(a.out.find("load imbalance"), std::string::npos);
  EXPECT_NE(a.out.find("per-rank work share"), std::string::npos);
}

TEST_F(Cli, EnergyReportsSavings) {
  ASSERT_EQ(run_cli({"trace", "bt", "-o", temp_trace(), "--ranks", "4",
                     "--iterations", "3"})
                .code,
            0);
  const CliResult e = run_cli({"energy", temp_trace(), "--allowance", "5"});
  ASSERT_EQ(e.code, 0) << e.err;
  EXPECT_NE(e.out.find("energy saved"), std::string::npos);
}

TEST_F(Cli, EnergyRequiresAllowance) {
  ASSERT_EQ(run_cli({"trace", "comd", "-o", temp_trace(), "--ranks", "2",
                     "--iterations", "2"})
                .code,
            0);
  EXPECT_NE(run_cli({"energy", temp_trace()}).code, 0);
}


TEST_F(Cli, BoundSavesAndReplayValidates) {
  ASSERT_EQ(run_cli({"trace", "bt", "-o", temp_trace(), "--ranks", "3",
                     "--iterations", "4"})
                .code,
            0);
  const std::string sched = temp_path("cli_saved.sched");
  const CliResult b = run_cli({"bound", temp_trace(), "--socket-cap", "45",
                               "-o", sched});
  ASSERT_EQ(b.code, 0) << b.err;
  EXPECT_NE(b.out.find("schedule written"), std::string::npos);
  const CliResult r = run_cli({"replay", temp_trace(), sched});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("valid"), std::string::npos);
}

TEST_F(Cli, ReplayRejectsMismatchedSchedule) {
  ASSERT_EQ(run_cli({"trace", "bt", "-o", temp_trace(), "--ranks", "3",
                     "--iterations", "4"})
                .code,
            0);
  const std::string sched = temp_path("cli_saved2.sched");
  ASSERT_EQ(run_cli({"bound", temp_trace(), "--socket-cap", "45", "-o",
                     sched})
                .code,
            0);
  // Different trace shape.
  ASSERT_EQ(run_cli({"trace", "comd", "-o", temp_trace(), "--ranks", "2",
                     "--iterations", "2"})
                .code,
            0);
  const CliResult r = run_cli({"replay", temp_trace(), sched});
  EXPECT_NE(r.code, 0);
  EXPECT_NE(r.err.find("does not match"), std::string::npos);
}


TEST_F(Cli, PartitionSplitsMachineBudget) {
  const std::string t1 = temp_path("cli_job1.trace");
  const std::string t2 = temp_path("cli_job2.trace");
  ASSERT_EQ(run_cli({"trace", "bt", "-o", t1, "--ranks", "2",
                     "--iterations", "2"})
                .code,
            0);
  ASSERT_EQ(run_cli({"trace", "sp", "-o", t2, "--ranks", "2",
                     "--iterations", "2"})
                .code,
            0);
  const CliResult r =
      run_cli({"partition", t1, t2, "--machine-watts", "200"});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("machine makespan"), std::string::npos);
}

TEST_F(Cli, PartitionInfeasibleBudget) {
  const std::string t1 = temp_path("cli_job3.trace");
  ASSERT_EQ(run_cli({"trace", "comd", "-o", t1, "--ranks", "2",
                     "--iterations", "2"})
                .code,
            0);
  const CliResult r = run_cli({"partition", t1, "--machine-watts", "10"});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("infeasible"), std::string::npos);
}


const char kZeroWorkTrace[] =
    "powerlim-trace 1\n"
    "ranks 1\n"
    "vertex 0 init -1 Init\n"
    "vertex 1 finalize -1 Finalize\n"
    "task 0 1 0 0 0 0 0.95 4 0 8\n";

TEST_F(CliLint, CleanTracePassesWithOkSummary) {
  const std::string path = temp_path("cli_lint_clean.trace");
  ASSERT_EQ(run_cli({"trace", "exchange", "-o", path}).code, 0);
  const CliResult r = run_cli({"lint", path});
  EXPECT_EQ(r.code, 0) << r.out << r.err;
  EXPECT_NE(r.out.find(": ok"), std::string::npos);
}

TEST_F(CliLint, ZeroWorkTaskIsFlaggedWithFileAndLine) {
  const std::string path =
      write_fixture("cli_lint_zero.trace", kZeroWorkTrace);
  const CliResult r = run_cli({"lint", path});
  EXPECT_NE(r.code, 0);
  EXPECT_NE(r.out.find(path + ":5: error: [task-work]"), std::string::npos)
      << r.out;
  EXPECT_NE(r.out.find("FAILED"), std::string::npos);
}

TEST_F(CliLint, CyclicTraceIsFlagged) {
  const std::string path = write_fixture("cli_lint_cycle.trace",
                                         "powerlim-trace 1\n"
                                         "ranks 1\n"
                                         "vertex 0 init -1 Init\n"
                                         "vertex 1 generic 0 A\n"
                                         "vertex 2 generic 0 B\n"
                                         "vertex 3 finalize -1 Finalize\n"
                                         "task 0 1 0 0 1 0.1 0.95 4 0 8\n"
                                         "task 1 2 0 0 1 0.1 0.95 4 0 8\n"
                                         "task 2 1 0 0 1 0.1 0.95 4 0 8\n"
                                         "task 2 3 0 0 1 0.1 0.95 4 0 8\n");
  const CliResult r = run_cli({"lint", path});
  EXPECT_NE(r.code, 0);
  EXPECT_NE(r.out.find("[dag-acyclic]"), std::string::npos) << r.out;
}

TEST_F(CliLint, MixedFilesReportPerFileSummaries) {
  const std::string good = temp_path("cli_lint_good.trace");
  ASSERT_EQ(run_cli({"trace", "exchange", "-o", good}).code, 0);
  const std::string bad =
      write_fixture("cli_lint_bad.trace", kZeroWorkTrace);
  const CliResult r = run_cli({"lint", good, bad});
  EXPECT_NE(r.code, 0);
  EXPECT_NE(r.out.find(good + ": ok"), std::string::npos) << r.out;
  EXPECT_NE(r.out.find("FAILED"), std::string::npos) << r.out;
}

TEST_F(CliLint, MissingFileFails) {
  const CliResult r = run_cli({"lint", "/nonexistent/x.trace"});
  EXPECT_NE(r.code, 0);
}

TEST_F(CliLint, RequiresAtLeastOneFile) {
  const CliResult r = run_cli({"lint"});
  EXPECT_NE(r.code, 0);
}

TEST_F(CliLint, BoundRejectsVacuousZeroWorkTrace) {
  // The historic bug: a zero-duration task made `bound` print an LP
  // bound of 0.0000 s. The lint gate now refuses to solve it.
  const std::string path =
      write_fixture("cli_bound_zero.trace", kZeroWorkTrace);
  const CliResult b = run_cli({"bound", path, "--socket-cap", "45"});
  EXPECT_NE(b.code, 0);
  EXPECT_NE(b.err.find("[task-work]"), std::string::npos) << b.err;
  EXPECT_EQ(b.out.find("LP bound"), std::string::npos) << b.out;
}

TEST_F(CliLint, SweepGateAlsoLints) {
  const std::string path =
      write_fixture("cli_sweep_zero.trace", kZeroWorkTrace);
  const CliResult s = run_cli({"sweep", path, "--from", "10", "--to", "60",
                               "--step", "25"});
  EXPECT_NE(s.code, 0);
  EXPECT_NE(s.err.find("[task-work]"), std::string::npos) << s.err;
}

TEST_F(Cli, DotRendersToStdout) {
  ASSERT_EQ(run_cli({"trace", "exchange", "-o", temp_trace()}).code, 0);
  const CliResult d = run_cli({"dot", temp_trace()});
  ASSERT_EQ(d.code, 0) << d.err;
  EXPECT_NE(d.out.find("digraph trace"), std::string::npos);
}

TEST_F(Cli, DotWritesFile) {
  ASSERT_EQ(run_cli({"trace", "exchange", "-o", temp_trace()}).code, 0);
  const std::string out_path = temp_path("cli_graph.dot");
  const CliResult d = run_cli({"dot", temp_trace(), "-o", out_path});
  ASSERT_EQ(d.code, 0) << d.err;
  std::ifstream f(out_path);
  EXPECT_TRUE(f.good());
}

}  // namespace
}  // namespace powerlim::cli
