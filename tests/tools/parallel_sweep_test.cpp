// End-to-end acceptance for `powerlim sweep --workers N`: a 16-cap
// sweep with every cap's first worker spawn crash-injected must
// complete, retry only the injured spawns, and produce table rows,
// journal records, and report `result`s identical to an uninterrupted
// serial (--workers 1) run; a LULESH sweep whose serial and pooled
// reports differ only in where each cap ran; and SIGKILLing the *sweep
// process* mid-parallel-run and resuming converges to the identical
// final table.
#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <chrono>
#include <fstream>
#include <regex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "report_parts.h"
#include "scratch_dir.h"
#include "tools/cli.h"

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

std::string read_file(const std::string& path) {
  std::ifstream f(path);
  std::ostringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

int count_records(const std::string& journal_path) {
  std::ifstream f(journal_path);
  int n = 0;
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("R ", 0) == 0) ++n;
  }
  return n;
}

/// First `lines` lines (the sweep table: header, rule, rows).
std::string head_lines(const std::string& text, int lines) {
  std::size_t pos = 0;
  for (int i = 0; i < lines && pos != std::string::npos; ++i) {
    pos = text.find('\n', pos);
    if (pos != std::string::npos) ++pos;
  }
  return text.substr(0, pos == std::string::npos ? text.size() : pos);
}

/// Gives every test its own scratch directory for the files it writes.
class ParallelSweepCliTest : public ::testing::Test {
 protected:
  void SetUp() override { ASSERT_TRUE(scratch_.ok()); }

  std::string temp_path(const std::string& name) const {
    return scratch_.path(name);
  }

 private:
  ScratchDir scratch_{"parallel_sweep"};
};

using ParallelSweepCli = ParallelSweepCliTest;

TEST_F(ParallelSweepCli, CrashInjectedParallelMatchesSerialByteForByte) {
  const std::string trace = temp_path("par_trace");
  const std::string serial_report = temp_path("par_serial.json");
  const std::string parallel_report = temp_path("par_parallel.json");
  const std::string journal = temp_path("par_journal");
  ASSERT_EQ(run_cli({"trace", "comd", "-o", trace, "--ranks", "2",
                     "--iterations", "3"})
                .code,
            0);

  // 30..105 step 5 = 16 caps (the acceptance sweep).
  const std::vector<std::string> base = {"sweep", trace, "--from", "30",
                                         "--to",  "105", "--step", "5"};
  const int n_caps = 16;

  // The serial reference is a clean run: a worker that crashed and was
  // replaced leaves no trace in the `result` of the cap it then solved.
  std::vector<std::string> serial_args = base;
  serial_args.insert(serial_args.end(), {"--report", serial_report});
  const CliResult serial = run_cli(serial_args);
  ASSERT_EQ(serial.code, 0) << serial.err;

  std::vector<std::string> par_args = base;
  par_args.insert(par_args.end(),
                  {"--workers", "4", "--inject-fail", "worker-crash",
                   "--report", parallel_report, "--journal", journal});
  const CliResult parallel = run_cli(par_args);
  ASSERT_EQ(parallel.code, 0) << parallel.err;

  // Table rows byte-identical (no telemetry in the table).
  const std::string table = head_lines(serial.out, 2 + n_caps);
  EXPECT_EQ(head_lines(parallel.out, 2 + n_caps), table);

  // Every cap's first spawn crashed and was retried in a fresh worker;
  // no cap degraded.
  EXPECT_NE(parallel.out.find("16 crash(es)"), std::string::npos)
      << parallel.out;
  EXPECT_NE(parallel.out.find("16 retried"), std::string::npos)
      << parallel.out;
  EXPECT_EQ(table.find("degraded"), std::string::npos);

  // Every report's `result` is identical (the parallel one's telemetry
  // really carries worker supervision).
  const std::string par_json = read_file(parallel_report);
  EXPECT_NE(par_json.find("\"isolated\":true"), std::string::npos);
  EXPECT_NE(par_json.find("\"spawns\":2"), std::string::npos);
  EXPECT_EQ(report_results(par_json),
            report_results(read_file(serial_report)));

  // All 16 caps landed durably.
  EXPECT_EQ(count_records(journal), n_caps);
}

/// `text` with each report's wall time, worker block and transport
/// block cut out of its telemetry: what tells how and where a cap was
/// solved, as opposed to what its solve did.
std::string without_placement(const std::string& text) {
  static const std::regex kPlacement(
      "\"wall_ms\":[^,]*,\"worker\":\\{[^}]*\\},\"transport\":\\{[^}]*\\},");
  return std::regex_replace(text, kPlacement, "");
}

// A serial sweep solves its caps one after another, a pooled one each in
// its own worker; since every cap solves cold, the two report the same
// pivots and the same vertex. This LULESH trace's 60 W cap once reached
// another optimal vertex serially (25,574 J instead of 27,092 J) when
// it started from the 55 W cap's basis.
TEST_F(ParallelSweepCli, LuleshSerialAndPooledReportsDifferOnlyInPlacement) {
  const std::string trace = temp_path("lulesh_trace");
  const std::string serial_report = temp_path("lulesh_serial.json");
  const std::string pooled_report = temp_path("lulesh_pooled.json");
  ASSERT_EQ(run_cli({"trace", "lulesh", "-o", trace, "--ranks", "8",
                     "--iterations", "12", "--seed", "8"})
                .code,
            0);
  const std::vector<std::string> base = {"sweep", trace, "--from", "55",
                                         "--to",  "60",  "--step", "5"};
  std::vector<std::string> serial_args = base;
  serial_args.insert(serial_args.end(), {"--report", serial_report});
  ASSERT_EQ(run_cli(serial_args).code, 0);
  std::vector<std::string> pooled_args = base;
  pooled_args.insert(pooled_args.end(),
                     {"--workers", "2", "--report", pooled_report});
  ASSERT_EQ(run_cli(pooled_args).code, 0);

  const std::string serial = read_file(serial_report);
  const std::string pooled = read_file(pooled_report);
  ASSERT_NE(pooled.find("\"isolated\":true"), std::string::npos);
  EXPECT_EQ(without_placement(pooled), without_placement(serial));
  EXPECT_NE(serial.find("\"energy_joules\":27092.1124209"),
            std::string::npos)
      << serial;
}

TEST_F(ParallelSweepCli, WorkerFaultNamesParse) {
  const std::string trace = temp_path("par_trace2");
  ASSERT_EQ(run_cli({"trace", "comd", "-o", trace, "--ranks", "2",
                     "--iterations", "3"})
                .code,
            0);
  // worker-oom: first spawn exits with the OOM code, retry succeeds.
  const CliResult r =
      run_cli({"sweep", trace, "--from", "50", "--to", "60", "--step", "10",
               "--workers", "2", "--inject-fail", "worker-oom"});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("2 resource-exhausted"), std::string::npos) << r.out;
  EXPECT_NE(r.out.find("2 retried"), std::string::npos) << r.out;
  EXPECT_NE(r.out.find("worker-oom"), std::string::npos) << r.out;

  // An unknown mode is a usage-level error, not a silent no-op.
  const CliResult bad =
      run_cli({"sweep", trace, "--from", "50", "--to", "60",
               "--inject-fail", "worker-nonsense"});
  EXPECT_NE(bad.code, 0);
}

TEST_F(ParallelSweepCli, WorkersRejectsZero) {
  const CliResult r = run_cli({"sweep", "nofile", "--from", "40", "--to",
                               "60", "--workers", "0"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("--workers"), std::string::npos);
}

TEST_F(ParallelSweepCli, SigkilledParallelSweepResumesByteIdentical) {
  const std::string trace = temp_path("par_kill_trace");
  const std::string journal = temp_path("par_kill_journal");
  // Big enough that the SIGKILL lands while caps are still in flight.
  ASSERT_EQ(run_cli({"trace", "comd", "-o", trace, "--ranks", "4",
                     "--iterations", "24"})
                .code,
            0);

  const std::vector<std::string> base = {"sweep", trace, "--from", "30",
                                         "--to",  "65",  "--step", "5"};
  const int n_caps = 8;

  const CliResult fresh = run_cli(base);
  ASSERT_EQ(fresh.code, 0) << fresh.err;

  std::vector<std::string> par_args = base;
  par_args.insert(par_args.end(),
                  {"--workers", "4", "--journal", journal});
  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    std::ostringstream out, err;
    const int code = run(par_args, out, err);
    _exit(code);
  }

  const auto start = std::chrono::steady_clock::now();
  bool killed = false;
  while (std::chrono::steady_clock::now() - start <
         std::chrono::seconds(60)) {
    if (count_records(journal) >= 1) {
      kill(pid, SIGKILL);
      killed = true;
      break;
    }
    int probe = 0;
    if (waitpid(pid, &probe, WNOHANG) == pid) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  if (killed) {
    int status = 0;
    ASSERT_EQ(waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFSIGNALED(status));
  }
  ASSERT_GE(count_records(journal), 1)
      << "journal never saw a completed cap";

  // Resume *in parallel mode*; the merged table must be byte-identical
  // to the uninterrupted serial reference.
  std::vector<std::string> resume_args = par_args;
  resume_args.push_back("--resume");
  const CliResult resumed = run_cli(resume_args);
  ASSERT_EQ(resumed.code, 0) << resumed.err;
  const std::string table = head_lines(fresh.out, 2 + n_caps);
  EXPECT_EQ(head_lines(resumed.out, 2 + n_caps), table);

  // And a second resume serves everything from the journal.
  const CliResult again = run_cli(resume_args);
  ASSERT_EQ(again.code, 0);
  EXPECT_EQ(head_lines(again.out, 2 + n_caps), table);
  EXPECT_NE(again.out.find("resumed " + std::to_string(n_caps) + " cap(s)"),
            std::string::npos);
}

}  // namespace
}  // namespace powerlim::cli
