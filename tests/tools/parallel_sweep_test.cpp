// End-to-end acceptance for `powerlim sweep --workers N`: a 16-cap
// sweep with every cap's first worker spawn crash-injected must
// complete, retry only the injured spawns, and produce table rows,
// journal records, and report `result`s identical to an uninterrupted
// serial (--workers 1) run. Plus the parent-crash
// half of the satellite: SIGKILLing the *sweep process* mid-parallel-
// run and resuming converges to the identical final table.
#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <chrono>
#include <fstream>
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

  // The serial reference also passes --inject-fail worker-crash: worker
  // faults are a documented no-op at --workers 1, so the solve is
  // untouched but both reports echo the same fault block.
  std::vector<std::string> serial_args = base;
  serial_args.insert(serial_args.end(), {"--inject-fail", "worker-crash",
                                         "--report", serial_report});
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
