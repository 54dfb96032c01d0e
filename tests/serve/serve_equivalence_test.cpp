// The powerlimd correctness anchor: a daemon-served sweep must match an
// offline `powerlim sweep` run (table and every report's `result`
// byte-identical) - in the clean case, under worker-crash
// injection, under net-* injection against remote powerlimd workers,
// after SIGKILLing the daemon mid-solve and restarting with --resume,
// and over a journal whose record for one cap an older build wrote.
#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "daemon_process.h"
#include "journal_records.h"
#include "report_parts.h"
#include "robust/journal.h"
#include "scratch_dir.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/repl.h"
#include "tools/cli.h"
#include "util/socket_io.h"

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

/// First `lines` lines (the sweep table: header, rule, rows).
std::string head_lines(const std::string& text, int lines) {
  std::size_t pos = 0;
  for (int i = 0; i < lines && pos != std::string::npos; ++i) {
    pos = text.find('\n', pos);
    if (pos != std::string::npos) ++pos;
  }
  return text.substr(0, pos == std::string::npos ? text.size() : pos);
}

/// Count journaled result rows across every sweep journal in a daemon
/// state dir (0 when none exists yet).
int journaled_rows(const std::string& state_dir) {
  int n = 0;
  std::error_code ec;
  for (const auto& e :
       std::filesystem::directory_iterator(state_dir, ec)) {
    const std::string name = e.path().filename().string();
    if (name.rfind("sweep-", 0) != 0) continue;
    std::ifstream f(e.path());
    std::string line;
    while (std::getline(f, line)) {
      if (line.rfind("R ", 0) == 0) ++n;
    }
  }
  return n;
}

/// Shared fixture: one trace + the offline serial oracle, built once per
/// test process in its own scratch directory; every test also gets a
/// scratch directory of its own for state dirs, port files and reports.
class ServeEquivalence : public ::testing::Test {
 protected:
  // 30..60 step 2.5 = 13 caps.
  static constexpr int kCaps = 13;

  static void SetUpTestSuite() {
    suite_dir_ = new ScratchDir("eq_suite");
    ASSERT_TRUE(suite_dir_->ok());
    trace_ = new std::string(suite_dir_->path("eq_trace"));
    ASSERT_EQ(run_cli({"trace", "comd", "-o", *trace_, "--ranks", "2",
                       "--iterations", "3"})
                  .code,
              0);
    offline_report_ = new std::string(suite_dir_->path("eq_offline.json"));
    std::vector<std::string> args = sweep_args();
    args.insert(args.end(), {"--report", *offline_report_});
    offline_ = new CliResult(run_cli(args));
    ASSERT_EQ(offline_->code, 0) << offline_->err;
  }

  static void TearDownTestSuite() {
    delete trace_;
    delete offline_report_;
    delete offline_;
    delete suite_dir_;
  }

  void SetUp() override { ASSERT_TRUE(scratch_.ok()); }

  std::string temp_path(const std::string& name) const {
    return scratch_.path(name);
  }

  /// Starts a daemon whose port file lives in this test's scratch
  /// directory.
  DaemonProcess start_daemon(const std::string& state_dir,
                             std::vector<std::string> extra_args) {
    return launch_daemon(
        temp_path("port_" + std::to_string(daemons_started_++)), state_dir,
        std::move(extra_args));
  }

  static std::vector<std::string> sweep_args() {
    return {"sweep", *trace_, "--from", "30", "--to", "60",
            "--step", "2.5"};
  }

  static std::vector<std::string> query_args(const DaemonProcess& d) {
    return {"query", *trace_,        "--server", endpoint_str(d), "--from",
            "30",    "--to", "60",   "--step",   "2.5"};
  }

  static std::string offline_table() {
    return head_lines(offline_->out, 2 + kCaps);
  }

  static ScratchDir* suite_dir_;
  static std::string* trace_;
  static std::string* offline_report_;
  static CliResult* offline_;

 private:
  ScratchDir scratch_{"eq"};
  int daemons_started_ = 0;
};

ScratchDir* ServeEquivalence::suite_dir_ = nullptr;
std::string* ServeEquivalence::trace_ = nullptr;
std::string* ServeEquivalence::offline_report_ = nullptr;
CliResult* ServeEquivalence::offline_ = nullptr;

TEST_F(ServeEquivalence, DaemonServedSweepMatchesOffline) {
  DaemonProcess d = start_daemon(temp_path("eq_state_clean"), {});
  ASSERT_GT(d.endpoint.port, 0);

  const std::string report = temp_path("eq_clean.json");
  std::vector<std::string> args = query_args(d);
  args.insert(args.end(), {"--report", report});
  const CliResult q = run_cli(args);
  ASSERT_EQ(q.code, 0) << q.err;

  EXPECT_EQ(head_lines(q.out, 2 + kCaps), offline_table());
  EXPECT_EQ(report_results(read_file(report)),
            report_results(read_file(*offline_report_)));
  // The hello ack's role reaches the `served:` line.
  EXPECT_NE(q.out.find("role=primary"), std::string::npos) << q.out;

  // A second identical query is served entirely from the journal,
  // still byte-identically.
  const CliResult q2 = run_cli(query_args(d));
  ASSERT_EQ(q2.code, 0) << q2.err;
  EXPECT_EQ(head_lines(q2.out, 2 + kCaps), offline_table());
  EXPECT_NE(q2.out.find("resumed=" + std::to_string(kCaps)),
            std::string::npos)
      << q2.out;

  EXPECT_EQ(d.stop(), 0);

  // Every reply row is its cap's `R` record in the daemon's journal,
  // byte for byte: the daemon adds nothing to the rows it serves.
  std::vector<std::string> replied;
  std::istringstream lines(read_file(report));
  for (std::string line; std::getline(lines, line);) {
    if (line.rfind("  {", 0) != 0) continue;
    if (line.back() == ',') line.pop_back();
    replied.push_back(line.substr(2));
  }
  std::vector<std::string> journaled;
  for (const std::string& hash : serve::journal_hashes(d.state_dir)) {
    auto journal =
        robust::SweepJournal::open(serve::journal_path(d.state_dir, hash));
    ASSERT_TRUE(journal.ok()) << journal.status().to_string();
    for (const robust::JournalEntry& e : journal->entries()) {
      journaled.push_back(e.report_json);
    }
  }
  ASSERT_EQ(replied.size(), static_cast<std::size_t>(kCaps));
  std::sort(replied.begin(), replied.end());
  std::sort(journaled.begin(), journaled.end());
  EXPECT_EQ(replied, journaled);
}

TEST_F(ServeEquivalence, WorkerCrashInjectionMatchesOffline) {
  // Same injection on both sides: each cap's first worker spawn
  // crashes, the retry succeeds. Daemon executors inherit the fault
  // plan across fork exactly like offline parallel sweeps do.
  std::vector<std::string> offline_args = sweep_args();
  offline_args.insert(offline_args.end(),
                      {"--inject-fail", "worker-crash", "--workers", "2"});
  const CliResult offline_faulted = run_cli(offline_args);
  ASSERT_EQ(offline_faulted.code, 0) << offline_faulted.err;

  DaemonProcess d = start_daemon(
      temp_path("eq_state_crash"),
      {"--inject-fail", "worker-crash", "--workers", "2"});
  ASSERT_GT(d.endpoint.port, 0);
  const CliResult q = run_cli(query_args(d));
  ASSERT_EQ(q.code, 0) << q.err;

  EXPECT_EQ(head_lines(q.out, 2 + kCaps),
            head_lines(offline_faulted.out, 2 + kCaps));
  // And the injured run still matches the clean serial table: the
  // retry absorbed every crash.
  EXPECT_EQ(head_lines(q.out, 2 + kCaps), offline_table());

  EXPECT_EQ(d.stop(), 0);
}

TEST_F(ServeEquivalence, NetFaultAgainstRemoteWorkersMatchesOffline) {
  // One worker powerlimd backs both runs (sequentially). net-drop
  // injures each cap's first scheduler-side remote attempt; the
  // reassignment ladder must converge to the serial table on both paths.
  const std::string worker_port_file = temp_path("eq_worker_port");
  std::remove(worker_port_file.c_str());
  const pid_t worker = fork();
  if (worker == 0) {
    install_signal_handlers();
    std::ostringstream out, err;
    _exit(run({"serve", "--listen", "127.0.0.1:0", "--port-file",
               worker_port_file, "--state-dir", temp_path("eq_worker_state")},
              out, err));
  }
  int worker_port = 0;
  for (int i = 0; i < 500 && worker_port == 0; ++i) {
    std::ifstream f(worker_port_file);
    int port = 0;
    if (f >> port && port > 0) worker_port = port;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  std::remove(worker_port_file.c_str());
  ASSERT_GT(worker_port, 0);
  const std::string remote = "127.0.0.1:" + std::to_string(worker_port);

  std::vector<std::string> offline_args = sweep_args();
  offline_args.insert(offline_args.end(),
                      {"--remote", remote, "--workers", "2",
                       "--inject-fail", "net-drop"});
  const CliResult offline_faulted = run_cli(offline_args);
  ASSERT_EQ(offline_faulted.code, 0) << offline_faulted.err;
  EXPECT_EQ(head_lines(offline_faulted.out, 2 + kCaps), offline_table());

  DaemonProcess d = start_daemon(
      temp_path("eq_state_net"),
      {"--remote", remote, "--workers", "2", "--inject-fail", "net-drop"});
  ASSERT_GT(d.endpoint.port, 0);
  const CliResult q = run_cli(query_args(d));
  ASSERT_EQ(q.code, 0) << q.err;
  EXPECT_EQ(head_lines(q.out, 2 + kCaps), offline_table());

  EXPECT_EQ(d.stop(), 0);
  kill(worker, SIGTERM);
  int status = 0;
  waitpid(worker, &status, 0);
}

TEST_F(ServeEquivalence, SigkillThenResumeServesByteIdenticalTable) {
  const std::string state = temp_path("eq_state_kill");
  DaemonProcess first = start_daemon(state, {"--max-active", "1"});
  ASSERT_GT(first.endpoint.port, 0);

  // A client child drives the sweep; the parent SIGKILLs the daemon as
  // soon as the journal shows at least one settled cap, so the kill
  // lands mid-request with caps still owed.
  const pid_t client = fork();
  ASSERT_GE(client, 0);
  if (client == 0) {
    const CliResult q = run_cli(query_args(first));
    // Expected to die with the daemon; exit code is irrelevant.
    _exit(q.code == 0 ? 0 : 1);
  }
  bool progressed = false;
  for (int i = 0; i < 30'000; ++i) {
    if (journaled_rows(state) >= 1) {
      progressed = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(progressed);
  kill(first.pid, SIGKILL);
  int status = 0;
  waitpid(first.pid, &status, 0);
  first.pid = -1;
  waitpid(client, &status, 0);
  const int rows_after_kill = journaled_rows(state);
  ASSERT_LT(rows_after_kill, kCaps) << "sweep finished before the kill; "
                                       "resume leg would be vacuous";

  // Restart with --resume and let the daemon finish the owed caps on
  // its own (--max-requests 1 drains after the internal resume
  // request), proving recovery needs no client.
  DaemonProcess second =
      start_daemon(state, {"--resume", "--max-requests", "1"});
  ASSERT_GT(second.endpoint.port, 0);
  ASSERT_EQ(waitpid(second.pid, &status, 0), second.pid);
  second.pid = -1;
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
  EXPECT_EQ(journaled_rows(state), kCaps);

  // A fresh daemon over the same state dir serves the whole table from
  // the journal, byte-identically to the offline oracle.
  DaemonProcess third = start_daemon(state, {});
  ASSERT_GT(third.endpoint.port, 0);
  const std::string report = temp_path("eq_resumed.json");
  std::vector<std::string> args = query_args(third);
  args.insert(args.end(), {"--report", report});
  const CliResult q = run_cli(args);
  ASSERT_EQ(q.code, 0) << q.err;
  EXPECT_EQ(head_lines(q.out, 2 + kCaps), offline_table());
  EXPECT_NE(q.out.find("resumed=" + std::to_string(kCaps)),
            std::string::npos)
      << q.out;
  EXPECT_EQ(report_results(read_file(report)),
            report_results(read_file(*offline_report_)));
  EXPECT_EQ(third.stop(), 0);
}

// A state dir whose journal holds an older build's record (schema 11,
// CRC recomputed) for one requested cap: the daemon re-solves that cap
// once, so the first sweep carries only this build's schema, and the
// next sweep is served entirely from the journal.
TEST_F(ServeEquivalence, OldSchemaRecordIsResolvedOnceThenServed) {
  const std::string state = temp_path("eq_state_old_schema");
  {
    DaemonProcess d = start_daemon(state, {});
    ASSERT_GT(d.endpoint.port, 0);
    const CliResult q = run_cli(query_args(d));
    ASSERT_EQ(q.code, 0) << q.err;
    EXPECT_EQ(d.stop(), 0);
  }
  const std::vector<std::string> hashes = serve::journal_hashes(state);
  ASSERT_EQ(hashes.size(), 1u);
  edit_journal_records(serve::journal_path(state, hashes[0]),
                       [](int index, const std::string& payload) {
                         return index == 0 ? with_schema(payload, 11)
                                           : payload;
                       });

  DaemonProcess d = start_daemon(state, {});
  ASSERT_GT(d.endpoint.port, 0);
  const std::string report = temp_path("eq_old_schema.json");
  std::vector<std::string> args = query_args(d);
  args.insert(args.end(), {"--report", report});
  const CliResult q = run_cli(args);
  ASSERT_EQ(q.code, 0) << q.err;
  EXPECT_EQ(head_lines(q.out, 2 + kCaps), offline_table());
  EXPECT_NE(q.out.find("resumed=" + std::to_string(kCaps - 1)),
            std::string::npos)
      << q.out;
  const std::string reports = read_file(report);
  EXPECT_EQ(reports.find("\"schema_version\":11"), std::string::npos)
      << reports;
  EXPECT_EQ(report_results(reports),
            report_results(read_file(*offline_report_)));

  const CliResult again = run_cli(query_args(d));
  ASSERT_EQ(again.code, 0) << again.err;
  EXPECT_EQ(head_lines(again.out, 2 + kCaps), offline_table());
  EXPECT_NE(again.out.find("resumed=" + std::to_string(kCaps)),
            std::string::npos)
      << again.out;
  EXPECT_EQ(d.stop(), 0);
}

}  // namespace
}  // namespace powerlim::cli
