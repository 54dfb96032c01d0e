// powerlimd's executor-death path, driven against a real daemon: a
// request executor SIGKILLed once is re-forked and the request still
// ends `ok` with every row an offline sweep's; SIGKILLed twice, the caps
// it still owes degrade to Static rows named exactly as the worker pool
// names a dead worker, so they too match what an offline pooled sweep
// writes for the same death.
#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <system_error>
#include <thread>
#include <vector>

#include "daemon_process.h"
#include "dag/trace_io.h"
#include "machine/power_model.h"
#include "report_parts.h"
#include "robust/pipeline.h"
#include "robust/worker_pool.h"
#include "scratch_dir.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "tools/cli.h"
#include "util/deadline.h"

namespace powerlim {
namespace {

using serve::CollectResult;
using serve::CollectStatus;
using serve::ServeClient;
using serve::ServeRequest;

// 16 socket caps, 30..67.5 W step 2.5, on a 16-rank trace: about a
// second of solving, so an executor is always caught mid-request.
constexpr int kRanks = 16;
constexpr int kCaps = 16;

std::string read_file(const std::string& path) {
  std::ifstream f(path);
  std::ostringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

/// Live (not yet zombie) children of `parent`, read from /proc/*/stat.
std::vector<pid_t> live_children(pid_t parent) {
  std::vector<pid_t> out;
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::directory_iterator("/proc", ec)) {
    const std::string name = entry.path().filename().string();
    if (name.find_first_not_of("0123456789") != std::string::npos) continue;
    std::ifstream f(entry.path() / "stat");
    std::string stat;
    if (!std::getline(f, stat)) continue;
    // "pid (comm) state ppid ...", and comm may hold spaces or parens.
    const std::size_t close = stat.rfind(')');
    if (close == std::string::npos) continue;
    std::istringstream rest(stat.substr(close + 1));
    char state = 0;
    long ppid = 0;
    if (rest >> state >> ppid && ppid == parent && state != 'Z') {
      out.push_back(static_cast<pid_t>(std::stol(name)));
    }
  }
  return out;
}

/// Waits up to 30 s for a live child of the daemon other than
/// `previous`: with one worker, a sweep request's executor is the
/// daemon's only child. Returns -1 when none appears.
pid_t await_executor(pid_t daemon, pid_t previous) {
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (std::chrono::steady_clock::now() < give_up) {
    for (pid_t pid : live_children(daemon)) {
      if (pid != previous) return pid;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return -1;
}

/// The wait() status of a process SIGKILLed, from a real one.
int sigkill_wait_status() {
  const pid_t child = fork();
  if (child == 0) {
    pause();
    _exit(0);
  }
  kill(child, SIGKILL);
  int status = 0;
  waitpid(child, &status, 0);
  return status;
}

/// Each row's report `result`, ordered by cap.
std::string row_results(std::vector<serve::ServeRow> rows) {
  std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
    return a.entry.job_cap_watts < b.entry.job_cap_watts;
  });
  std::string reports;
  for (const serve::ServeRow& row : rows) {
    reports += row.entry.report_json + "\n";
  }
  return report_results(reports);
}

class ExecutorDeath : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    suite_dir_ = new ScratchDir("executor_death_suite");
    ASSERT_TRUE(suite_dir_->ok());
    trace_ = new std::string(suite_dir_->path("heavy.trace"));
    std::ostringstream out, err;
    ASSERT_EQ(cli::run({"trace", "comd", "-o", *trace_, "--ranks",
                        std::to_string(kRanks), "--iterations", "30"},
                       out, err),
              0);
    // The offline reference: a serial sweep of the same caps.
    const std::string report = suite_dir_->path("offline.json");
    ASSERT_EQ(cli::run({"sweep", *trace_, "--from", "30", "--to", "67.5",
                        "--step", "2.5", "--report", report},
                       out, err),
              0)
        << err.str();
    offline_results_ = new std::string(report_results(read_file(report)));
    ASSERT_FALSE(offline_results_->empty());
  }

  static void TearDownTestSuite() {
    delete offline_results_;
    delete trace_;
    delete suite_dir_;
  }

  void SetUp() override { ASSERT_TRUE(scratch_.ok()); }

  DaemonProcess start_daemon() {
    return launch_daemon(scratch_.path("port"), scratch_.path("state"),
                         {"--max-active", "1"});
  }

  static ServeRequest sweep_request(const std::string& id) {
    ServeRequest req;
    req.id = id;
    req.kind = "sweep";
    for (int i = 0; i < kCaps; ++i) {
      req.caps.push_back(kRanks * (30.0 + 2.5 * i));
    }
    req.trace_text = read_file(*trace_);
    return req;
  }

  static ScratchDir* suite_dir_;
  static std::string* trace_;
  static std::string* offline_results_;

 private:
  ScratchDir scratch_{"executor_death"};
};

ScratchDir* ExecutorDeath::suite_dir_ = nullptr;
std::string* ExecutorDeath::trace_ = nullptr;
std::string* ExecutorDeath::offline_results_ = nullptr;

TEST_F(ExecutorDeath, OneKillIsRetriedAndMatchesOfflineSweep) {
  DaemonProcess d = start_daemon();
  ASSERT_GT(d.endpoint.port, 0);
  ServeClient client;
  ASSERT_TRUE(client.connect(d.endpoint).ok());
  ASSERT_TRUE(client.submit(sweep_request("kill-once")).ok());

  const pid_t executor = await_executor(d.pid, -1);
  ASSERT_GT(executor, 0);
  ASSERT_EQ(kill(executor, SIGKILL), 0);

  const CollectResult got = client.collect("kill-once", 120.0);
  ASSERT_EQ(got.status, CollectStatus::kDone) << got.error_detail;
  EXPECT_EQ(got.done.status, "ok") << got.done.detail;
  ASSERT_EQ(got.rows.size(), static_cast<std::size_t>(kCaps));
  EXPECT_EQ(row_results(got.rows), *offline_results_);
  EXPECT_EQ(d.stop(), 0);
}

TEST_F(ExecutorDeath, TwoKillsDegradeOwedCapsAsAPooledSweepWould) {
  DaemonProcess d = start_daemon();
  ASSERT_GT(d.endpoint.port, 0);
  ServeClient client;
  ASSERT_TRUE(client.connect(d.endpoint).ok());
  ASSERT_TRUE(client.submit(sweep_request("kill-twice")).ok());

  const pid_t first = await_executor(d.pid, -1);
  ASSERT_GT(first, 0);
  ASSERT_EQ(kill(first, SIGKILL), 0);
  const pid_t second = await_executor(d.pid, first);
  ASSERT_GT(second, 0);
  ASSERT_EQ(kill(second, SIGKILL), 0);

  const CollectResult got = client.collect("kill-twice", 120.0);
  ASSERT_EQ(got.status, CollectStatus::kDone) << got.error_detail;
  EXPECT_EQ(got.done.status, "ok") << got.done.detail;
  ASSERT_EQ(got.rows.size(), static_cast<std::size_t>(kCaps));

  // What an offline pooled sweep writes for a cap whose worker died
  // twice on SIGKILL: the pool's own death detail, then Static.
  std::istringstream text(read_file(*trace_));
  const dag::TaskGraph graph = dag::read_trace(text);
  const machine::PowerModel model{machine::SocketSpec{}};
  const machine::ClusterSpec cluster{};
  const util::CancelToken never_cancelled;
  robust::SolveDriverOptions solve_options;
  solve_options.cancel = &never_cancelled;
  robust::WorkerFailure failure;
  failure.outcome = robust::StatusCode::kWorkerCrashed;
  failure.detail = robust::classify_worker_exit(false, sigkill_wait_status(),
                                                {}, 0.0)
                       .detail;
  failure.spawns = 2;

  int degraded = 0;
  for (const serve::ServeRow& row : got.rows) {
    if (!row.entry.degraded ||
        row.entry.verdict != robust::StatusCode::kWorkerCrashed) {
      continue;
    }
    ++degraded;
    const robust::JournalEntry expected = robust::degraded_entry_for_failure(
        graph, model, cluster, solve_options, row.entry.job_cap_watts,
        failure);
    EXPECT_EQ(report_results(row.entry.report_json + "\n"),
              report_results(expected.report_json + "\n"))
        << row.entry.job_cap_watts;
  }
  EXPECT_GE(degraded, 1) << got.done.detail;
  EXPECT_NE(got.done.detail.find(failure.detail), std::string::npos)
      << got.done.detail;
  EXPECT_EQ(d.stop(), 0);
}

}  // namespace
}  // namespace powerlim
