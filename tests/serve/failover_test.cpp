// High-availability acceptance for powerlimd: journal-streaming warm
// standby with epoch-fenced failover, driven through the real CLI in
// forked children.
//
//   * a warm standby's journal and trace files become byte-identical
//     copies of the primary's, and the standby serves fully-proven
//     repeat queries read-only (sheds the rest as 'overloaded standby',
//     and refuses a trace that only shares a snapshot's hash);
//   * SIGKILLing the primary mid-sweep and promoting the standby
//     yields a served table, and report `result`s, byte-identical to
//     offline `powerlim sweep` with zero replicated-proven rows
//     re-solved;
//   * failover is epoch-fenced: a client that has seen the promoted
//     epoch refuses the deposed primary, and a newer-epoch standby
//     dialing the deposed primary fences it (exit 76);
//   * a standby auto-promotes after --promote-after-ms of heartbeat
//     silence;
//   * SIGHUP journal-reopen on the primary mid-replication does not
//     tear the stream;
//   * hostile bytes on the replication port (bad magic, path-escape
//     hashes, oversized length prefixes) drop that connection only;
//   * `loadgen --replay` drives a file of queued requests.
#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "forged_trace.h"
#include "report_parts.h"
#include "robust/wire.h"
#include "scratch_dir.h"
#include "serve/client.h"
#include "serve/loadgen.h"
#include "serve/protocol.h"
#include "serve/repl.h"
#include "serve/server.h"
#include "tools/cli.h"
#include "util/socket_io.h"

namespace powerlim::cli {
namespace {

using serve::CollectStatus;
using serve::FailoverClient;
using serve::FailoverResult;
using serve::ServeClient;
using serve::ServeRequest;

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
  std::ifstream f(path, std::ios::binary);
  std::ostringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

std::string head_lines(const std::string& text, int lines) {
  std::size_t pos = 0;
  for (int i = 0; i < lines && pos != std::string::npos; ++i) {
    pos = text.find('\n', pos);
    if (pos != std::string::npos) ++pos;
  }
  return text.substr(0, pos == std::string::npos ? text.size() : pos);
}

/// A forked `powerlim serve` child (primary or standby).
struct Daemon {
  pid_t pid = -1;
  util::Endpoint endpoint;
  std::string state_dir;

  Daemon() = default;
  Daemon(Daemon&& o) noexcept
      : pid(o.pid), endpoint(o.endpoint), state_dir(std::move(o.state_dir)) {
    o.pid = -1;
  }
  Daemon& operator=(Daemon&& o) noexcept {
    std::swap(pid, o.pid);
    endpoint = o.endpoint;
    state_dir = o.state_dir;
    return *this;
  }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;
  ~Daemon() {
    if (pid <= 0) return;
    kill(pid, SIGKILL);
    int status = 0;
    waitpid(pid, &status, 0);
  }

  void sigkill() {
    if (pid <= 0) return;
    kill(pid, SIGKILL);
    int status = 0;
    waitpid(pid, &status, 0);
    pid = -1;
  }

  /// Waits for exit (no signal sent); returns exit code or -signal.
  int wait_exit() {
    if (pid <= 0) return -1;
    int status = 0;
    const pid_t waited = waitpid(pid, &status, 0);
    const pid_t was = pid;
    pid = -1;
    if (waited != was) return -1;
    return WIFEXITED(status) ? WEXITSTATUS(status) : -WTERMSIG(status);
  }

  int stop() {
    if (pid <= 0) return -1;
    kill(pid, SIGTERM);
    return wait_exit();
  }
};

Daemon launch_daemon(const std::string& port_file,
                     const std::string& state_dir,
                     std::vector<std::string> extra_args) {
  Daemon d;
  d.state_dir = state_dir;
  std::vector<std::string> args = {"serve",       "--listen",
                                   "127.0.0.1:0", "--port-file",
                                   port_file,     "--state-dir",
                                   d.state_dir};
  args.insert(args.end(), extra_args.begin(), extra_args.end());
  const pid_t pid = fork();
  if (pid == 0) {
    install_signal_handlers();
    std::ostringstream out, err;
    _exit(run(args, out, err));
  }
  d.pid = pid;
  for (int i = 0; i < 500; ++i) {
    std::ifstream f(port_file);
    int port = 0;
    if (f >> port && port > 0) {
      d.endpoint.host = "127.0.0.1";
      d.endpoint.port = port;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  std::remove(port_file.c_str());
  return d;
}

std::string endpoint_str(const Daemon& d) {
  return "127.0.0.1:" + std::to_string(d.endpoint.port);
}

/// All replicated artifacts (journals + trace snapshots) of two state
/// dirs are byte-identical. Epoch files are excluded: a standby's
/// adopted epoch may lag the primary's by one persistence step.
bool state_dirs_identical(const std::string& a, const std::string& b,
                          std::string* why) {
  const std::vector<std::string> hashes = serve::journal_hashes(a);
  if (hashes != serve::journal_hashes(b)) {
    *why = "different journal sets";
    return false;
  }
  if (hashes.empty()) {
    *why = "no journals yet";
    return false;
  }
  for (const std::string& h : hashes) {
    if (read_file(serve::journal_path(a, h)) !=
        read_file(serve::journal_path(b, h))) {
      *why = "journal " + h + " differs";
      return false;
    }
    if (read_file(serve::trace_path(a, h)) !=
        read_file(serve::trace_path(b, h))) {
      *why = "trace " + h + " differs";
      return false;
    }
  }
  return true;
}

bool wait_for_identical(const std::string& a, const std::string& b,
                        int timeout_ms) {
  std::string why;
  for (int i = 0; i < timeout_ms; i += 5) {
    if (state_dirs_identical(a, b, &why)) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ADD_FAILURE() << "standby never caught up: " << why;
  return false;
}

int journaled_rows(const std::string& state_dir) {
  int n = 0;
  for (const std::string& h : serve::journal_hashes(state_dir)) {
    std::ifstream f(serve::journal_path(state_dir, h));
    std::string line;
    while (std::getline(f, line)) {
      if (line.rfind("R ", 0) == 0) ++n;
    }
  }
  return n;
}

/// Fixture: one trace + the offline sweep oracle, built once per test
/// process in its own scratch directory; every test also gets a scratch
/// directory of its own for state dirs, port files and reports.
class FailoverTest : public ::testing::Test {
 protected:
  // 30..60 step 2.5 = 13 caps, enough runway to SIGKILL mid-sweep.
  static constexpr int kCaps = 13;

  static void SetUpTestSuite() {
    suite_dir_ = new ScratchDir("ha_suite");
    ASSERT_TRUE(suite_dir_->ok());
    trace_ = new std::string(suite_dir_->path("ha_trace"));
    ASSERT_EQ(run_cli({"trace", "comd", "-o", *trace_, "--ranks", "2",
                       "--iterations", "3"})
                  .code,
              0);
    offline_report_ = new std::string(suite_dir_->path("ha_offline.json"));
    offline_ = new CliResult(
        run_cli({"sweep", *trace_, "--from", "30", "--to", "60", "--step",
                 "2.5", "--report", *offline_report_}));
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
  Daemon start_daemon(const std::string& state_dir,
                      std::vector<std::string> extra_args) {
    return launch_daemon(
        temp_path("port_" + std::to_string(daemons_started_++)), state_dir,
        std::move(extra_args));
  }

  Daemon start_standby(const std::string& state_dir, const Daemon& primary,
                       std::vector<std::string> extra_args) {
    std::vector<std::string> args = {"--standby-of", endpoint_str(primary),
                                     "--repl-heartbeat-ms", "25"};
    args.insert(args.end(), extra_args.begin(), extra_args.end());
    return start_daemon(state_dir, args);
  }

  static std::vector<std::string> query_args(const std::string& server) {
    return {"query", *trace_, "--server", server,
            "--from", "30",   "--to",     "60",   "--step", "2.5"};
  }

  static std::string offline_table() {
    return head_lines(offline_->out, 2 + kCaps);
  }

  static ScratchDir* suite_dir_;
  static std::string* trace_;
  static std::string* offline_report_;
  static CliResult* offline_;

 private:
  ScratchDir scratch_{"ha"};
  int daemons_started_ = 0;
};

ScratchDir* FailoverTest::suite_dir_ = nullptr;
std::string* FailoverTest::trace_ = nullptr;
std::string* FailoverTest::offline_report_ = nullptr;
CliResult* FailoverTest::offline_ = nullptr;

TEST_F(FailoverTest, StandbyReplicatesByteIdenticalAndServesReadOnly) {
  Daemon primary = start_daemon(temp_path("ha_rep_p"),
                                {"--repl-heartbeat-ms", "25"});
  ASSERT_GT(primary.endpoint.port, 0);
  Daemon standby = start_standby(temp_path("ha_rep_s"), primary, {});
  ASSERT_GT(standby.endpoint.port, 0);

  const CliResult q = run_cli(query_args(endpoint_str(primary)));
  ASSERT_EQ(q.code, 0) << q.err;
  ASSERT_TRUE(wait_for_identical(primary.state_dir, standby.state_dir,
                                 10'000));

  // The standby declares itself at handshake time.
  ServeClient probe;
  ASSERT_TRUE(probe.connect(standby.endpoint).ok());
  EXPECT_EQ(probe.role(), "standby");
  EXPECT_GE(probe.epoch(), 1u);
  probe.close();

  // A fully-proven repeat query is served read-only from the replica,
  // byte-identical to the offline oracle, re-solving nothing.
  const CliResult rq = run_cli(query_args(endpoint_str(standby)));
  ASSERT_EQ(rq.code, 0) << rq.err;
  EXPECT_EQ(head_lines(rq.out, 2 + kCaps), offline_table());
  EXPECT_NE(rq.out.find("resumed=" + std::to_string(kCaps)),
            std::string::npos)
      << rq.out;
  EXPECT_EQ(journaled_rows(standby.state_dir), kCaps)
      << "standby must not have solved anything itself";

  // A request with an unproven cap is shed with the typed reason, not
  // solved (the standby is read-only).
  const CliResult uq = run_cli({"query", *trace_, "--server",
                                endpoint_str(standby), "--from", "80",
                                "--to", "80"});
  EXPECT_EQ(uq.code, 3) << uq.err;
  EXPECT_NE(uq.err.find("overloaded (standby)"), std::string::npos)
      << uq.err;
  EXPECT_EQ(journaled_rows(standby.state_dir), kCaps);

  // A trace that only shares the replicated trace's hash is refused,
  // not answered from that trace's journal. (`query` sends a canonical
  // serialization, which drops comments, so the forged bytes go raw.)
  ServeRequest forged;
  forged.id = "forged";
  forged.kind = "bound";
  forged.caps = {2 * 30.0};
  forged.trace_text = same_crc_other_trace(read_file(*trace_));
  ServeClient raw;
  ASSERT_TRUE(raw.connect(standby.endpoint).ok());
  ASSERT_TRUE(raw.submit(forged).ok());
  const serve::CollectResult got = raw.collect("forged", 30.0);
  EXPECT_EQ(got.status, serve::CollectStatus::kRequestError);
  EXPECT_TRUE(got.rows.empty());
  EXPECT_NE(got.error_detail.find("different trace"), std::string::npos)
      << got.error_detail;
  raw.close();

  EXPECT_EQ(standby.stop(), 0);
  EXPECT_EQ(primary.stop(), 0);
}

TEST_F(FailoverTest, SigkillPromoteServesByteIdenticalTableZeroResolves) {
  Daemon primary = start_daemon(
      temp_path("ha_kill_p"),
      {"--repl-heartbeat-ms", "25", "--max-active", "1"});
  ASSERT_GT(primary.endpoint.port, 0);
  Daemon standby = start_standby(temp_path("ha_kill_s"), primary, {});
  ASSERT_GT(standby.endpoint.port, 0);

  // A client child drives the sweep; the kill lands once the standby
  // has replicated at least one proven row but the sweep still owes
  // caps - a genuine mid-sweep failover.
  const pid_t client = fork();
  ASSERT_GE(client, 0);
  if (client == 0) {
    const CliResult q = run_cli(query_args(endpoint_str(primary)));
    _exit(q.code == 0 ? 0 : 1);
  }
  bool progressed = false;
  for (int i = 0; i < 30'000; ++i) {
    if (journaled_rows(standby.state_dir) >= 1) {
      progressed = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(progressed) << "standby never replicated a row";
  primary.sigkill();
  int status = 0;
  waitpid(client, &status, 0);

  // Operator promotion bumps the epoch.
  const CliResult pr =
      run_cli({"promote", "--server", endpoint_str(standby)});
  ASSERT_EQ(pr.code, 0) << pr.err;
  EXPECT_NE(pr.out.find("promoted: epoch="), std::string::npos) << pr.out;

  ServeClient probe;
  ASSERT_TRUE(probe.connect(standby.endpoint).ok());
  EXPECT_EQ(probe.role(), "primary");
  EXPECT_GE(probe.epoch(), 2u);
  probe.close();

  const int replicated = journaled_rows(standby.state_dir);
  ASSERT_GE(replicated, 1);
  ASSERT_LE(replicated, kCaps);

  // The failover query lists the dead primary first; the client walks
  // past it. Every replicated-proven row is served from the journal
  // (resumed >= replicated would under-claim: the count must be exact -
  // zero proven rows re-solved), the rest solve fresh, and the table is
  // byte-identical to the offline oracle.
  const std::string report = temp_path("ha_failover.json");
  std::vector<std::string> args = {
      "query",   *trace_,
      "--endpoints", endpoint_str(primary) + "," + endpoint_str(standby),
      "--from",  "30",
      "--to",    "60",
      "--step",  "2.5",
      "--report", report};
  const CliResult fq = run_cli(args);
  ASSERT_EQ(fq.code, 0) << fq.err;
  EXPECT_EQ(head_lines(fq.out, 2 + kCaps), offline_table());
  EXPECT_NE(fq.out.find("resumed=" + std::to_string(replicated)),
            std::string::npos)
      << "expected exactly " << replicated
      << " journal-served rows, got: " << fq.out;
  EXPECT_EQ(report_results(read_file(report)),
            report_results(read_file(*offline_report_)));

  EXPECT_EQ(standby.stop(), 0);
}

TEST_F(FailoverTest, StaleEpochDeposedPrimaryRefusedAndFenced) {
  Daemon old_primary = start_daemon(temp_path("ha_split_p"),
                                    {"--repl-heartbeat-ms", "25"});
  ASSERT_GT(old_primary.endpoint.port, 0);
  Daemon standby = start_standby(temp_path("ha_split_s"), old_primary, {});
  ASSERT_GT(standby.endpoint.port, 0);

  const CliResult q = run_cli({"query", *trace_, "--server",
                               endpoint_str(old_primary), "--from", "40",
                               "--to", "40"});
  ASSERT_EQ(q.code, 0) << q.err;
  ASSERT_TRUE(
      wait_for_identical(old_primary.state_dir, standby.state_dir, 10'000));

  // Promote the standby while the old primary still runs: dual primary.
  ASSERT_EQ(run_cli({"promote", "--server", endpoint_str(standby)}).code, 0);

  // A client that has witnessed epoch 2 refuses the deposed primary
  // outright - even though it answers first in the endpoint order.
  ServeRequest req;
  req.id = "split";
  req.kind = "bound";
  req.caps = {80};  // unproven: only a live primary would solve it
  {
    std::ifstream f(*trace_);
    std::ostringstream ss;
    ss << f.rdbuf();
    req.trace_text = ss.str();
  }
  FailoverClient seen_new({standby.endpoint, old_primary.endpoint});
  const FailoverResult first = seen_new.request(req);
  ASSERT_EQ(first.result.status, CollectStatus::kDone)
      << first.result.error_detail;
  EXPECT_EQ(seen_new.max_epoch(), 2u);

  standby.sigkill();
  req.id = "split2";
  const FailoverResult second =
      seen_new.request(req, /*connect_timeout_s=*/2.0,
                       /*wall_timeout_s=*/10.0, /*rounds=*/1);
  EXPECT_NE(second.result.status, CollectStatus::kDone)
      << "deposed primary served a post-failover client";
  EXPECT_NE(second.detail.find("stale epoch"), std::string::npos)
      << second.detail;

  // And the replication link fences the deposed primary: a standby
  // carrying the promoted epoch dials it, the primary sees a newer
  // epoch in the hello, refuses the ack, and exits kExitFenced.
  Daemon rejoin = start_standby(standby.state_dir, old_primary, {});
  ASSERT_GT(rejoin.endpoint.port, 0);
  EXPECT_EQ(old_primary.wait_exit(), serve::kExitFenced);
  EXPECT_EQ(rejoin.stop(), 0);
}

TEST_F(FailoverTest, StandbyAutoPromotesOnHeartbeatSilence) {
  Daemon primary = start_daemon(temp_path("ha_auto_p"),
                                {"--repl-heartbeat-ms", "25"});
  ASSERT_GT(primary.endpoint.port, 0);
  Daemon standby = start_standby(temp_path("ha_auto_s"), primary,
                                 {"--promote-after-ms", "300"});
  ASSERT_GT(standby.endpoint.port, 0);

  const CliResult q = run_cli({"query", *trace_, "--server",
                               endpoint_str(primary), "--from", "40",
                               "--to", "40"});
  ASSERT_EQ(q.code, 0) << q.err;
  ASSERT_TRUE(
      wait_for_identical(primary.state_dir, standby.state_dir, 10'000));

  primary.sigkill();

  // The standby notices the silence and promotes itself; no operator.
  bool promoted = false;
  for (int i = 0; i < 500; ++i) {
    ServeClient probe;
    if (probe.connect(standby.endpoint, 1.0).ok() &&
        probe.role() == "primary") {
      EXPECT_GE(probe.epoch(), 2u);
      promoted = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_TRUE(promoted) << "standby never auto-promoted";

  // It is a real primary now: solves fresh caps.
  const CliResult fresh = run_cli({"query", *trace_, "--server",
                                   endpoint_str(standby), "--from", "80",
                                   "--to", "80"});
  EXPECT_EQ(fresh.code, 0) << fresh.err;
  EXPECT_EQ(standby.stop(), 0);
}

TEST_F(FailoverTest, SighupMidReplicationDoesNotTearTheStream) {
  Daemon primary = start_daemon(temp_path("ha_hup_p"),
                                {"--repl-heartbeat-ms", "25"});
  ASSERT_GT(primary.endpoint.port, 0);
  Daemon standby = start_standby(temp_path("ha_hup_s"), primary, {});
  ASSERT_GT(standby.endpoint.port, 0);

  // Pepper the primary with journal-reopen requests while a sweep
  // streams to the standby: a reopen mid-record must not tear the
  // replication stream (the hub reads files by offset, so a swapped fd
  // is invisible to the protocol).
  const pid_t client = fork();
  ASSERT_GE(client, 0);
  if (client == 0) {
    const CliResult q = run_cli(query_args(endpoint_str(primary)));
    _exit(q.code == 0 ? 0 : 1);
  }
  for (int i = 0; i < 40; ++i) {
    kill(primary.pid, SIGHUP);
    std::this_thread::sleep_for(std::chrono::milliseconds(15));
  }
  int status = 0;
  ASSERT_EQ(waitpid(client, &status, 0), client);
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
      << "query failed under SIGHUP storm";

  ASSERT_TRUE(
      wait_for_identical(primary.state_dir, standby.state_dir, 10'000));
  // The replicated table still serves byte-identically.
  const CliResult rq = run_cli(query_args(endpoint_str(standby)));
  ASSERT_EQ(rq.code, 0) << rq.err;
  EXPECT_EQ(head_lines(rq.out, 2 + kCaps), offline_table());

  EXPECT_EQ(standby.stop(), 0);
  EXPECT_EQ(primary.stop(), 0);
}

TEST_F(FailoverTest, HostileReplBytesDropThatConnectionOnly) {
  Daemon primary = start_daemon(temp_path("ha_hostile_p"),
                                {"--repl-heartbeat-ms", "25"});
  ASSERT_GT(primary.endpoint.port, 0);

  auto raw_conn = [&]() {
    std::string error;
    const int fd = util::connect_timeout(primary.endpoint, 5.0, &error);
    EXPECT_GE(fd, 0) << error;
    return fd;
  };
  auto send_raw = [](int fd, const std::string& bytes) {
    EXPECT_EQ(util::send_all(fd, bytes.data(), bytes.size(), 5.0),
              util::IoStatus::kOk);
  };
  auto drained = [](int fd) {
    // The daemon answered (maybe) and closed; recv eventually sees EOF.
    std::string sink;
    for (int i = 0; i < 200; ++i) {
      const util::IoStatus st = util::recv_some(fd, &sink);
      if (st == util::IoStatus::kDisconnected) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    return false;
  };

  // Bad repl magic: refused with an error ack, then dropped.
  {
    const int fd = raw_conn();
    send_raw(fd, robust::encode_wire_frame(serve::kTagReplHello,
                                           "powerlimd-repl v9\n"
                                           "schema=1 proto=1 epoch=1\n"));
    EXPECT_TRUE(drained(fd));
    ::close(fd);
  }
  // Path-escape journal hash in a mark: dropped without an ack.
  {
    const int fd = raw_conn();
    serve::ReplHello hello;
    hello.epoch = 1;
    hello.marks.push_back({"../../etc/cron.d", 20, 0});
    send_raw(fd, robust::encode_wire_frame(
                     serve::kTagReplHello, encode_repl_hello(hello)));
    EXPECT_TRUE(drained(fd));
    ::close(fd);
  }
  // Hostile length prefix on the repl port: rejected pre-allocation.
  {
    const int fd = raw_conn();
    send_raw(fd, "W H deadbeef 999999999999999\nx");
    EXPECT_TRUE(drained(fd));
    ::close(fd);
  }

  // None of it hurt the daemon: honest service continues.
  const CliResult q = run_cli({"query", *trace_, "--server",
                               endpoint_str(primary), "--from", "40",
                               "--to", "40"});
  EXPECT_EQ(q.code, 0) << q.err;
  EXPECT_EQ(primary.stop(), 0);
}

TEST_F(FailoverTest, LoadgenReplayDrivesQueuedRequestFile) {
  Daemon primary = start_daemon(temp_path("ha_replay_p"), {});
  ASSERT_GT(primary.endpoint.port, 0);

  const std::string replay = temp_path("ha_replay.txt");
  {
    std::ofstream f(replay, std::ios::trunc);
    f << "# failover soak mix\n"
      << "sweep 0 60,70\n"
      << "bound 0 60\n"
      << "\n"
      << "sweep 0 60,70,80\n";
  }
  const CliResult lg = run_cli({"loadgen", *trace_, "--server",
                                endpoint_str(primary), "--clients", "2",
                                "--replay", replay, "--json"});
  ASSERT_EQ(lg.code, 0) << lg.err;
  EXPECT_NE(lg.out.find("\"requests\":3"), std::string::npos) << lg.out;
  EXPECT_NE(lg.out.find("\"ok\":3"), std::string::npos) << lg.out;

  // Malformed replay lines are a usage error, not a hang.
  {
    std::ofstream f(replay, std::ios::trunc);
    f << "resolve 0 60\n";
  }
  const CliResult bad = run_cli({"loadgen", *trace_, "--server",
                                 endpoint_str(primary), "--replay",
                                 replay});
  EXPECT_EQ(bad.code, 2);
  EXPECT_NE(bad.err.find("unknown kind"), std::string::npos) << bad.err;

  EXPECT_EQ(primary.stop(), 0);
}

}  // namespace
}  // namespace powerlim::cli
