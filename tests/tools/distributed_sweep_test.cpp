// End-to-end acceptance for `powerlim sweep --remote` against real
// `powerlim serve` (powerlimd) processes on localhost: a 32-cap distributed
// sweep must match the serial reference (table and every report's
// `result` byte-identical), stay byte-identical under every net-*
// fault mode and under SIGKILL of a worker mid-sweep, reject a lying
// worker through the certificate gate, and compose with --journal /
// --resume unchanged.
#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <regex>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
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

/// Pulls "<n> remote failure(s)" / "<n> certificate-rejected" style
/// counters out of the sweep's stats line (-1 when absent).
int stat_before(const std::string& out, const std::string& suffix) {
  static const std::regex kNum("([0-9]+) ");
  const std::size_t at = out.find(suffix);
  if (at == std::string::npos) return -1;
  std::size_t start = out.rfind('\n', at);
  start = start == std::string::npos ? 0 : start + 1;
  const std::string line = out.substr(start, at - start);
  std::smatch m;
  std::string best;
  for (auto it = std::sregex_iterator(line.begin(), line.end(), kNum);
       it != std::sregex_iterator(); ++it) {
    best = (*it)[1];
  }
  return best.empty() ? -1 : std::stoi(best);
}

/// One powerlimd child process started through the real CLI.
struct Worker {
  pid_t pid = -1;
  int port = 0;
};

Worker launch_worker(const std::string& port_file,
                     const std::string& state_dir,
                     std::vector<std::string> extra_args) {
  std::vector<std::string> args = {"serve",       "--listen",
                                   "127.0.0.1:0", "--port-file",
                                   port_file,     "--state-dir",
                                   state_dir};
  args.insert(args.end(), extra_args.begin(), extra_args.end());
  const pid_t pid = fork();
  if (pid == 0) {
    install_signal_handlers();
    std::ostringstream out, err;
    _exit(run(args, out, err));
  }
  Worker w;
  w.pid = pid;
  for (int i = 0; i < 500 && w.port == 0; ++i) {
    std::ifstream f(port_file);
    int port = 0;
    if (f >> port && port > 0) {
      w.port = port;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  std::remove(port_file.c_str());
  return w;
}

/// SIGTERMs a worker and returns its exit code (or -signal).
int stop_worker(const Worker& w) {
  if (w.pid <= 0) return -1;
  kill(w.pid, SIGTERM);
  int status = 0;
  if (waitpid(w.pid, &status, 0) != w.pid) return -1;
  return WIFEXITED(status) ? WEXITSTATUS(status) : -WTERMSIG(status);
}

std::string endpoint(const Worker& w) {
  return "127.0.0.1:" + std::to_string(w.port);
}

/// Shared fixture: one trace + one serial reference sweep, built once
/// per test process in its own scratch directory (the serial run is the
/// byte-identity oracle for every leg); every test also gets a scratch
/// directory of its own for the files it writes.
class DistributedSweepCli : public ::testing::Test {
 protected:
  static constexpr int kCaps = 32;

  static void SetUpTestSuite() {
    suite_dir_ = new ScratchDir("dist_suite");
    ASSERT_TRUE(suite_dir_->ok());
    trace_ = new std::string(suite_dir_->path("dist_trace"));
    ASSERT_EQ(run_cli({"trace", "comd", "-o", *trace_, "--ranks", "2",
                       "--iterations", "3"})
                  .code,
              0);
    serial_report_ = new std::string(suite_dir_->path("dist_serial.json"));
    std::vector<std::string> args = base_args();
    args.insert(args.end(), {"--report", *serial_report_});
    serial_ = new CliResult(run_cli(args));
    ASSERT_EQ(serial_->code, 0) << serial_->err;
  }

  static void TearDownTestSuite() {
    delete trace_;
    delete serial_report_;
    delete serial_;
    delete suite_dir_;
  }

  void SetUp() override { ASSERT_TRUE(scratch_.ok()); }

  std::string temp_path(const std::string& name) const {
    return scratch_.path(name);
  }

  /// Starts a powerlimd whose port file and state dir live in this
  /// test's scratch directory.
  Worker start_worker(std::vector<std::string> extra_args) {
    const std::string n = std::to_string(workers_started_++);
    return launch_worker(temp_path("port_" + n), temp_path("state_" + n),
                         std::move(extra_args));
  }

  // 30..107.5 step 2.5 = 32 caps (the acceptance sweep).
  static std::vector<std::string> base_args() {
    return {"sweep", *trace_, "--from", "30", "--to", "107.5",
            "--step", "2.5"};
  }

  static std::string serial_table() {
    return head_lines(serial_->out, 2 + kCaps);
  }

  static ScratchDir* suite_dir_;
  static std::string* trace_;
  static std::string* serial_report_;
  static CliResult* serial_;

 private:
  ScratchDir scratch_{"dist"};
  int workers_started_ = 0;
};

ScratchDir* DistributedSweepCli::suite_dir_ = nullptr;
std::string* DistributedSweepCli::trace_ = nullptr;
std::string* DistributedSweepCli::serial_report_ = nullptr;
CliResult* DistributedSweepCli::serial_ = nullptr;

TEST_F(DistributedSweepCli, TwoWorkersByteIdenticalToSerialAndResumes) {
  const Worker w1 = start_worker({});
  const Worker w2 = start_worker({});
  ASSERT_GT(w1.port, 0);
  ASSERT_GT(w2.port, 0);

  const std::string report = temp_path("dist_two.json");
  const std::string journal = temp_path("dist_two.jnl");
  std::vector<std::string> args = base_args();
  args.insert(args.end(),
              {"--remote", endpoint(w1) + "," + endpoint(w2), "--workers",
               "2", "--report", report, "--journal", journal});
  const CliResult dist = run_cli(args);
  ASSERT_EQ(dist.code, 0) << dist.err;

  // Table rows byte-identical; no cap degraded.
  EXPECT_EQ(head_lines(dist.out, 2 + kCaps), serial_table());
  EXPECT_EQ(serial_table().find("degraded"), std::string::npos);

  // Every report's `result` identical; at least one cap really went
  // remote (endpoint stamped in its telemetry's transport block).
  const std::string dist_json = read_file(report);
  EXPECT_EQ(report_results(dist_json),
            report_results(read_file(*serial_report_)));
  EXPECT_GE(stat_before(dist.out, "cap(s) solved remotely"), 1);
  EXPECT_EQ(stat_before(dist.out, "certificate-rejected"), 0);
  EXPECT_NE(dist_json.find("\"remote\":true"), std::string::npos);

  // All 32 caps landed durably; a resume serves them from the journal
  // without touching the (now gone) workers, byte-identically.
  EXPECT_EQ(count_records(journal), kCaps);
  EXPECT_EQ(stop_worker(w1), 0);
  EXPECT_EQ(stop_worker(w2), 0);
  std::vector<std::string> resume_args = args;
  resume_args.push_back("--resume");
  const CliResult resumed = run_cli(resume_args);
  ASSERT_EQ(resumed.code, 0) << resumed.err;
  EXPECT_EQ(head_lines(resumed.out, 2 + kCaps), serial_table());
  EXPECT_NE(resumed.out.find("resumed " + std::to_string(kCaps) + " cap(s)"),
            std::string::npos);
}

TEST_F(DistributedSweepCli, SurvivesSigkillOfAWorkerMidSweep) {
  const Worker w1 = start_worker({});
  const Worker w2 = start_worker({});
  ASSERT_GT(w1.port, 0);
  ASSERT_GT(w2.port, 0);

  // A helper process SIGKILLs w1 as soon as the journal shows progress,
  // so the kill lands while caps are still in flight (or immediately
  // after a very fast sweep - either way the sweep must finish clean).
  const std::string journal = temp_path("dist_kill.jnl");
  const pid_t killer = fork();
  ASSERT_GE(killer, 0);
  if (killer == 0) {
    for (int i = 0; i < 30'000; ++i) {
      if (count_records(journal) >= 1) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    kill(w1.pid, SIGKILL);
    _exit(0);
  }

  std::vector<std::string> args = base_args();
  args.insert(args.end(),
              {"--remote", endpoint(w1) + "," + endpoint(w2), "--workers",
               "2", "--journal", journal});
  const CliResult dist = run_cli(args);
  ASSERT_EQ(dist.code, 0) << dist.err;
  EXPECT_EQ(head_lines(dist.out, 2 + kCaps), serial_table());
  EXPECT_EQ(count_records(journal), kCaps);

  int ignored = 0;
  waitpid(killer, &ignored, 0);
  waitpid(w1.pid, &ignored, 0);  // SIGKILLed by the helper
  EXPECT_EQ(stop_worker(w2), 0);
}

TEST_F(DistributedSweepCli, LyingWorkerIsRejectedAndResolvedLocally) {
  // One Byzantine worker (forged too-good bounds, local verification
  // skipped) and one honest worker: the certificate gate must reject
  // the forged result(s), re-solve locally/elsewhere, and converge to
  // the serial table anyway.
  const Worker liar = start_worker({"--inject-fail", "net-lie"});
  const Worker honest = start_worker({});
  ASSERT_GT(liar.port, 0);
  ASSERT_GT(honest.port, 0);

  std::vector<std::string> args = base_args();
  args.insert(args.end(), {"--remote", endpoint(liar) + "," +
                                           endpoint(honest),
                           "--workers", "2"});
  const CliResult dist = run_cli(args);
  ASSERT_EQ(dist.code, 0) << dist.err;
  EXPECT_EQ(head_lines(dist.out, 2 + kCaps), serial_table());
  EXPECT_GE(stat_before(dist.out, "certificate-rejected"), 1) << dist.out;
  EXPECT_GE(stat_before(dist.out, "remote failure(s)"), 1) << dist.out;

  EXPECT_EQ(stop_worker(liar), 0);
  EXPECT_EQ(stop_worker(honest), 0);
}

TEST_F(DistributedSweepCli, WorkerSideFaultMatrixStaysByteIdentical) {
  // Worker-side injection: each mode injures every cap's first attempt
  // on that worker; the reassignment ladder must still converge to the
  // serial table and to the serial run's `result`s, with exit 0. A
  // network fault never touches a solve, so no row echoes it.
  const struct {
    const char* mode;
    std::vector<std::string> worker_extra;
    std::vector<std::string> sweep_extra;
  } kLegs[] = {
      {"net-drop", {"--inject-fail", "net-drop"}, {}},
      {"net-stall",
       {"--inject-fail", "net-stall"},
       {"--remote-heartbeat-ms", "400"}},
      {"net-corrupt", {"--inject-fail", "net-corrupt"}, {}},
      {"net-slow",
       {"--inject-fail", "net-slow"},
       {"--remote-heartbeat-ms", "600"}},
  };
  for (const auto& leg : kLegs) {
    SCOPED_TRACE(leg.mode);
    const Worker w = start_worker(leg.worker_extra);
    ASSERT_GT(w.port, 0);
    const std::string report = temp_path(std::string(leg.mode) + ".json");
    std::vector<std::string> args = base_args();
    args.insert(args.end(), {"--remote", endpoint(w), "--workers", "2",
                             "--report", report});
    args.insert(args.end(), leg.sweep_extra.begin(), leg.sweep_extra.end());
    const CliResult dist = run_cli(args);
    ASSERT_EQ(dist.code, 0) << dist.err;
    EXPECT_EQ(head_lines(dist.out, 2 + kCaps), serial_table());
    EXPECT_EQ(report_results(read_file(report)),
              report_results(read_file(*serial_report_)));
    stop_worker(w);
  }
}

TEST_F(DistributedSweepCli, SchedulerSideFaultMatrixStaysByteIdentical) {
  // Scheduler-side injection (`sweep --inject-fail net-*`): the injured
  // attempts are lost on this side of the socket; the table and every
  // report's `result` must still match a serial run.
  const struct {
    const char* mode;
    std::vector<std::string> extra;
  } kLegs[] = {
      {"net-drop", {}},
      {"net-stall", {"--remote-heartbeat-ms", "400"}},
      {"net-corrupt", {}},
      {"net-slow", {"--remote-heartbeat-ms", "600"}},
  };
  for (const auto& leg : kLegs) {
    SCOPED_TRACE(leg.mode);
    const Worker w = start_worker({});
    ASSERT_GT(w.port, 0);
    const std::string report = temp_path(std::string(leg.mode) + ".json");
    std::vector<std::string> args = base_args();
    args.insert(args.end(), {"--remote", endpoint(w), "--workers", "2",
                             "--inject-fail", leg.mode, "--report", report});
    args.insert(args.end(), leg.extra.begin(), leg.extra.end());
    const CliResult dist = run_cli(args);
    ASSERT_EQ(dist.code, 0) << dist.err;
    EXPECT_EQ(head_lines(dist.out, 2 + kCaps), serial_table());
    EXPECT_EQ(report_results(read_file(report)),
              report_results(read_file(*serial_report_)));
    stop_worker(w);
  }
}

TEST_F(DistributedSweepCli, UsageErrors) {
  // Bad endpoint shapes fail fast as usage errors, before any solving.
  for (const char* bad : {"nonsense", "host:", ":1234", "host:0",
                          "host:99999"}) {
    SCOPED_TRACE(bad);
    std::vector<std::string> args = base_args();
    args.insert(args.end(), {"--remote", bad});
    const CliResult r = run_cli(args);
    EXPECT_NE(r.code, 0);
  }
  // Unknown net mode on sweep is an error, not a silent no-op.
  std::vector<std::string> args = base_args();
  args.insert(args.end(), {"--inject-fail", "net-nonsense"});
  EXPECT_NE(run_cli(args).code, 0);
}

}  // namespace
}  // namespace powerlim::cli
