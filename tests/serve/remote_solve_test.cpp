// powerlimd `solve` requests and the worker pool's remote half, below
// the CLI. A real daemon (`powerlim serve` in a forked child) is driven
// over a raw socket: heartbeats while a solve runs, then the row, the
// schedule artifact and the done frame; version rejection at hello; an
// injected worker crash answered with its failure class and nothing
// else; a SIGTERM drain mid-solve; and bound/sweep clients that never
// see a solve frame while the same daemon serves one. The worker pool's
// remote semantics run against daemon endpoints: remote settling,
// dead-endpoint drain to local, Byzantine gate rejection walking the
// reassignment ladder, and the ladder's attempt limit.
#include <poll.h>
#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "apps/benchmarks.h"
#include "dag/trace_io.h"
#include "machine/power_model.h"
#include "robust/journal.h"
#include "robust/solve_driver.h"
#include "robust/wire.h"
#include "robust/worker_pool.h"
#include "scratch_dir.h"
#include "serve/protocol.h"
#include "tools/cli.h"
#include "util/deadline.h"
#include "util/socket_io.h"

namespace powerlim {
namespace {

using robust::FrameStream;
using robust::JournalEntry;
using robust::StatusCode;
using robust::WireDecode;
using robust::WireFrame;

dag::TaskGraph small_graph() {
  return apps::make_comd({.ranks = 2, .iterations = 2, .seed = 5});
}

std::string trace_text(const dag::TaskGraph& g) {
  std::ostringstream os;
  dag::write_trace(os, g);
  return os.str();
}

/// A forked `powerlim serve` child on an ephemeral port, with its state
/// dir, port file and log in a scratch directory. The destructor
/// SIGKILLs a daemon a failed assertion left behind.
struct Daemon {
  pid_t pid = -1;
  util::Endpoint ep;
  std::string log;

  Daemon() = default;
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;
  ~Daemon() {
    if (pid <= 0) return;
    kill(pid, SIGKILL);
    int status = 0;
    waitpid(pid, &status, 0);
  }

  /// Graceful SIGTERM drain; returns the exit code (or -signal).
  int stop() {
    if (pid <= 0) return -1;
    kill(pid, SIGTERM);
    int status = 0;
    const pid_t waited = waitpid(pid, &status, 0);
    const pid_t was = pid;
    pid = -1;
    if (waited != was) return -1;
    return WIFEXITED(status) ? WEXITSTATUS(status) : -WTERMSIG(status);
  }
};

/// Starts a daemon named `name` under `dir`; its stdout and stderr land
/// in `<name>.log` when it exits.
void start_daemon(const ScratchDir& dir, const std::string& name,
                  std::vector<std::string> extra_args, Daemon* d) {
  const std::string port_file = dir.path(name + ".port");
  d->log = dir.path(name + ".log");
  std::vector<std::string> args = {"serve",       "--listen",
                                   "127.0.0.1:0", "--port-file",
                                   port_file,     "--state-dir",
                                   dir.path(name + ".state")};
  args.insert(args.end(), extra_args.begin(), extra_args.end());
  const std::string log = d->log;
  const pid_t pid = fork();
  if (pid == 0) {
    cli::install_signal_handlers();
    std::ostringstream out, err;
    const int rc = cli::run(args, out, err);
    std::ofstream(log) << out.str() << err.str();
    _exit(rc);
  }
  d->pid = pid;
  d->ep.host = "127.0.0.1";
  for (int i = 0; i < 500 && d->ep.port == 0; ++i) {
    std::ifstream f(port_file);
    int port = 0;
    if (f >> port && port > 0) {
      d->ep.port = port;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
}

std::string read_file(const std::string& path) {
  std::ifstream f(path);
  std::ostringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

/// Reads frames from `fd` into `got` until one tagged with any of
/// `stop_tags` arrives (returns its tag) or ~20 s pass (returns 0).
char read_until(int fd, FrameStream* stream, const std::string& stop_tags,
                std::vector<WireFrame>* got) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (std::chrono::steady_clock::now() < deadline) {
    WireFrame f;
    while (stream->next(&f) == WireDecode::kOk) {
      got->push_back(f);
      if (stop_tags.find(f.tag) != std::string::npos) return f.tag;
    }
    if (stream->poisoned()) return 0;
    struct pollfd pfd = {fd, POLLIN, 0};
    if (::poll(&pfd, 1, 100) <= 0) continue;
    std::string chunk;
    const util::IoStatus st = util::recv_some(fd, &chunk);
    if (st == util::IoStatus::kDisconnected || st == util::IoStatus::kError) {
      return 0;
    }
    stream->feed(chunk);
  }
  return 0;
}

/// A raw powerlimd connection past its hello.
struct RawClient {
  int fd = -1;
  FrameStream stream;
  ~RawClient() {
    if (fd >= 0) ::close(fd);
  }

  bool connect(const util::Endpoint& ep) {
    std::string error;
    fd = util::connect_timeout(ep, 5.0, &error);
    if (fd < 0 || !send_frame(serve::kTagHello, serve::encode_hello())) return false;
    std::vector<WireFrame> frames;
    if (read_until(fd, &stream, "A", &frames) != 'A') return false;
    serve::HelloAck ack;
    return serve::decode_hello_ack(frames.back().payload, &ack) && ack.ok;
  }

  bool send_frame(char tag, const std::string& payload) {
    const std::string frame = robust::encode_wire_frame(tag, payload);
    return util::send_all(fd, frame.data(), frame.size(), 5.0) ==
           util::IoStatus::kOk;
  }

  bool solve(const std::string& id, const dag::TaskGraph& g, double cap,
             int attempt) {
    serve::ServeRequest req;
    req.id = id;
    req.kind = "solve";
    req.deadline_ms = 60'000.0;
    req.caps = {cap};
    req.attempt = attempt;
    req.trace_text = trace_text(g);
    return send_frame(serve::kTagRequest, serve::encode_request(req));
  }

  /// Frames up to and including the request's terminal frame (D/E/O).
  std::vector<WireFrame> answer() {
    std::vector<WireFrame> frames;
    read_until(fd, &stream, "DEO", &frames);
    return frames;
  }
};

std::string tags_of(const std::vector<WireFrame>& frames) {
  std::string tags;
  for (const WireFrame& f : frames) tags += f.tag;
  return tags;
}

// --- the daemon's solve request ---

TEST(PowerlimdSolve, SolvesAJobEndToEndWithHeartbeatsAndArtifact) {
  ScratchDir dir("solve_e2e");
  ASSERT_TRUE(dir.ok());
  Daemon d;
  start_daemon(dir, "d", {}, &d);
  ASSERT_GT(d.ep.port, 0);
  RawClient client;
  ASSERT_TRUE(client.connect(d.ep));

  const double cap = 120.0;
  ASSERT_TRUE(client.solve("s1", small_graph(), cap, 0));
  const std::vector<WireFrame> frames = client.answer();
  ASSERT_FALSE(frames.empty());
  ASSERT_EQ(frames.back().tag, serve::kTagDone) << tags_of(frames);

  serve::ServeRow row;
  std::string schedule;
  for (const WireFrame& f : frames) {
    std::string id;
    if (f.tag == serve::kTagRow) {
      ASSERT_TRUE(serve::decode_row(f.payload, &row));
    }
    if (f.tag == serve::kTagArtifact) {
      ASSERT_TRUE(serve::decode_artifact(f.payload, &id, &schedule));
    }
  }
  EXPECT_EQ(row.id, "s1");
  const JournalEntry& entry = row.entry;
  EXPECT_EQ(entry.job_cap_watts, cap);
  EXPECT_EQ(entry.verdict, StatusCode::kOk);
  EXPECT_GT(entry.bound_seconds, 0.0);
  // The child stamps isolated-worker telemetry like a local pool child.
  EXPECT_NE(entry.report_json.find("\"isolated\":true"), std::string::npos);
  // Every kOk row is followed by the solution artifact.
  EXPECT_NE(schedule.find("schedule"), std::string::npos);

  ::close(client.fd);
  client.fd = -1;
  EXPECT_EQ(d.stop(), 0);
}

TEST(PowerlimdSolve, RejectsVersionSkewWithCleanAck) {
  ScratchDir dir("solve_skew");
  ASSERT_TRUE(dir.ok());
  Daemon d;
  start_daemon(dir, "d", {}, &d);
  ASSERT_GT(d.ep.port, 0);
  RawClient client;
  std::string error;
  client.fd = util::connect_timeout(d.ep, 5.0, &error);
  ASSERT_GE(client.fd, 0) << error;
  ASSERT_TRUE(client.send_frame(serve::kTagHello,
                          std::string(serve::kServeProtoMagic) +
                              "\nschema=" +
                              std::to_string(robust::kRunReportSchemaVersion) +
                              " proto=999"));
  std::vector<WireFrame> frames;
  ASSERT_EQ(read_until(client.fd, &client.stream, "A", &frames), 'A');
  EXPECT_EQ(frames.back().payload.rfind("error ", 0), 0u)
      << frames.back().payload;
  EXPECT_NE(frames.back().payload.find("version skew"), std::string::npos);
  EXPECT_EQ(d.stop(), 0);
}

TEST(PowerlimdSolve, SigtermDrainsGracefullyMidConnection) {
  // SIGTERM while a solve is in flight: the daemon drains, the solve's
  // final frame is flushed, and the daemon exits 0 - never a crash,
  // never a hang.
  ScratchDir dir("solve_sigterm");
  ASSERT_TRUE(dir.ok());
  Daemon d;
  start_daemon(dir, "d", {}, &d);
  ASSERT_GT(d.ep.port, 0);
  RawClient client;
  ASSERT_TRUE(client.connect(d.ep));
  const dag::TaskGraph g =
      apps::make_comd({.ranks = 4, .iterations = 16, .seed = 5});
  ASSERT_TRUE(client.solve("s1", g, 60.0 * 4, 0));

  // Let the solve start, then terminate the daemon.
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  ASSERT_EQ(kill(d.pid, SIGTERM), 0);

  // Either the solve finished (a row) or the child was interrupted
  // (a cancelled row, or an 'E' naming the failure class).
  const std::vector<WireFrame> frames = client.answer();
  bool got_final = false;
  for (const WireFrame& f : frames) {
    got_final |= f.tag == serve::kTagRow || f.tag == serve::kTagError;
  }
  EXPECT_TRUE(got_final) << tags_of(frames);
  int status = 0;
  ASSERT_EQ(waitpid(d.pid, &status, 0), d.pid);
  d.pid = -1;
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
}

TEST(PowerlimdSolve, HeartbeatsWhileRunningThenRowArtifactDone) {
  ScratchDir dir("solve_beats");
  ASSERT_TRUE(dir.ok());
  Daemon d;
  start_daemon(dir, "d", {}, &d);
  ASSERT_GT(d.ep.port, 0);
  RawClient client;
  ASSERT_TRUE(client.connect(d.ep));
  // A cap that takes several heartbeat intervals to solve.
  const dag::TaskGraph g =
      apps::make_comd({.ranks = 64, .iterations = 40, .seed = 17});
  ASSERT_TRUE(client.solve("beats", g, 60.0 * 64, 0));
  const std::string tags = tags_of(client.answer());
  // Heartbeats, then exactly one row, its artifact and the done frame.
  ASSERT_GE(tags.size(), 4u) << tags;
  EXPECT_EQ(tags.substr(tags.size() - 3), "RSD") << tags;
  EXPECT_EQ(tags.find_first_not_of('H'), tags.size() - 3) << tags;
  EXPECT_EQ(d.stop(), 0);
}

TEST(PowerlimdSolve, InjectedCrashAnswersWorkerCrashedWithoutRetry) {
  // worker-crash injures attempt 0 of every cap. The daemon answers that
  // attempt with the failure class alone: no degraded row, no re-fork.
  // The next attempt of the same cap is healthy.
  ScratchDir dir("solve_crash");
  ASSERT_TRUE(dir.ok());
  Daemon d;
  start_daemon(dir, "d", {"--inject-fail", "worker-crash"}, &d);
  ASSERT_GT(d.ep.port, 0);
  RawClient client;
  ASSERT_TRUE(client.connect(d.ep));

  ASSERT_TRUE(client.solve("a0", small_graph(), 120.0, 0));
  const std::vector<WireFrame> crashed = client.answer();
  ASSERT_FALSE(crashed.empty());
  EXPECT_EQ(tags_of(crashed).find_first_not_of('H'), crashed.size() - 1)
      << tags_of(crashed);
  ASSERT_EQ(crashed.back().tag, serve::kTagError);
  std::string id, detail;
  ASSERT_TRUE(serve::decode_error(crashed.back().payload, &id, &detail));
  EXPECT_EQ(id, "a0");
  EXPECT_EQ(detail.rfind("worker-crashed ", 0), 0u) << detail;

  ASSERT_TRUE(client.solve("a1", small_graph(), 120.0, 1));
  const std::string tags = tags_of(client.answer());
  EXPECT_EQ(tags.substr(tags.find_first_not_of('H')), "RSD") << tags;

  EXPECT_EQ(d.stop(), 0);
  // One crash line, two requests served, nothing degraded: the crashed
  // attempt was answered once and never re-run.
  const std::string log = read_file(d.log);
  EXPECT_EQ(log.find("a0 worker-crashed"), log.rfind("a0 worker-crashed"))
      << log;
  EXPECT_NE(log.find("a0 worker-crashed"), std::string::npos) << log;
  EXPECT_NE(log.find("served 2 request(s), shed 0, degraded 0 cap(s)"),
            std::string::npos)
      << log;
}

TEST(PowerlimdSolve, BoundAndSweepClientsNeverSeeSolveFrames) {
  // A solve runs while another connection submits a sweep and a bound:
  // that connection sees only row, shed, done and error frames - the
  // frames load generators count as success or failure.
  ScratchDir dir("solve_mixed");
  ASSERT_TRUE(dir.ok());
  Daemon d;
  start_daemon(dir, "d", {"--max-active", "2"}, &d);
  ASSERT_GT(d.ep.port, 0);
  const dag::TaskGraph heavy =
      apps::make_comd({.ranks = 64, .iterations = 40, .seed = 17});
  RawClient solver;
  ASSERT_TRUE(solver.connect(d.ep));
  ASSERT_TRUE(solver.solve("s", heavy, 60.0 * 64, 0));

  RawClient client;
  ASSERT_TRUE(client.connect(d.ep));
  serve::ServeRequest sweep;
  sweep.id = "sw";
  sweep.kind = "sweep";
  sweep.caps = {100.0, 120.0, 140.0};
  sweep.trace_text = trace_text(small_graph());
  ASSERT_TRUE(client.send_frame(serve::kTagRequest, serve::encode_request(sweep)));
  serve::ServeRequest bound = sweep;
  bound.id = "bd";
  bound.kind = "bound";
  bound.caps = {110.0};
  ASSERT_TRUE(client.send_frame(serve::kTagRequest, serve::encode_request(bound)));
  std::string tags = tags_of(client.answer());
  tags += tags_of(client.answer());
  EXPECT_EQ(tags.find_first_not_of("RODE"), std::string::npos) << tags;
  EXPECT_EQ(std::count(tags.begin(), tags.end(), 'R'), 4) << tags;
  EXPECT_EQ(std::count(tags.begin(), tags.end(), 'D'), 2) << tags;

  const std::string solve_tags = tags_of(solver.answer());
  EXPECT_NE(solve_tags.find('H'), std::string::npos) << solve_tags;
  EXPECT_EQ(solve_tags.substr(solve_tags.size() - 3), "RSD") << solve_tags;
  EXPECT_EQ(d.stop(), 0);
}

// --- worker pool semantics against powerlimd endpoints ---

struct PoolFixture {
  dag::TaskGraph graph = small_graph();
  machine::PowerModel model{machine::SocketSpec{}};
  machine::ClusterSpec cluster;
  std::vector<robust::WorkerTaskSpec> tasks;
  robust::RemoteWorkerOptions remote;

  explicit PoolFixture(const std::vector<double>& caps) {
    for (double cap : caps) {
      robust::WorkerTaskSpec spec;
      spec.job_cap_watts = cap;
      spec.run = [this, cap](int attempt) {
        robust::SolveDriverOptions opt;
        opt.cap_deadline_ms = 60'000.0;
        const robust::SolveOutcome o =
            robust::SolveDriver(graph, model, cluster, opt).solve(cap);
        JournalEntry entry;
        entry.job_cap_watts = cap;
        entry.verdict = o.report.verdict;
        entry.degraded = o.report.degraded;
        entry.bound_seconds = o.report.bound_seconds;
        entry.fallback = o.report.fallback;
        entry.report_json = o.report.to_json();
        (void)attempt;
        return entry;
      };
      tasks.push_back(spec);
    }
    remote.request.kind = "solve";
    remote.request.deadline_ms = 60'000.0;
    remote.request.trace_text = trace_text(graph);
    remote.heartbeat_timeout_ms = 5000.0;
  }
};

/// A port nothing listens on.
int dead_port() {
  std::string error;
  const int lfd = util::listen_tcp("127.0.0.1", 0, &error);
  if (lfd < 0) return 0;
  const int port = util::bound_port(lfd);
  ::close(lfd);
  return port;
}

TEST(DistributedPool, AllCapsSettleRemotelyWithLocalWorkersDisabled) {
  ScratchDir dir("pool_remote");
  ASSERT_TRUE(dir.ok());
  Daemon d;
  start_daemon(dir, "d", {}, &d);
  ASSERT_GT(d.ep.port, 0);
  PoolFixture fix({120.0, 110.0, 100.0});
  fix.remote.remotes = {d.ep};
  robust::WorkerPoolOptions pool;
  pool.workers = 0;  // remote-only: locals exist only as ladder fallback
  pool.remote = fix.remote;

  std::vector<robust::TransportTelemetry> transports;
  const robust::WorkerPoolResult res = robust::run_worker_pool(
      fix.tasks, pool, util::Deadline{},
      [&](const robust::WorkerTaskResult& r, std::size_t) {
        EXPECT_EQ(r.outcome, robust::WorkerOutcome::kOk);
        transports.push_back(r.transport);
      });
  EXPECT_EQ(d.stop(), 0);

  ASSERT_EQ(res.results.size(), 3u);
  for (const robust::WorkerTaskResult& r : res.results) {
    EXPECT_EQ(r.outcome, robust::WorkerOutcome::kOk);
    EXPECT_EQ(r.entry.verdict, StatusCode::kOk);
  }
  EXPECT_EQ(res.stats.remote_clean, 3);
  EXPECT_EQ(res.stats.remote_failures, 0);
  ASSERT_EQ(transports.size(), 3u);
  for (const robust::TransportTelemetry& t : transports) {
    EXPECT_TRUE(t.remote);
    EXPECT_EQ(t.endpoint, util::to_string(d.ep));
    EXPECT_EQ(t.retries, 0);
  }
}

TEST(DistributedPool, DeadEndpointDrainsToLocalWorkers) {
  // Nothing listens on the endpoint: after kMaxConnectFailures backoff
  // rounds the remote is declared dead and every cap settles locally.
  const int port = dead_port();
  ASSERT_GT(port, 0);
  PoolFixture fix({120.0, 110.0});
  fix.remote.remotes = {{"127.0.0.1", port}};
  robust::WorkerPoolOptions pool;
  pool.workers = 2;
  pool.remote = fix.remote;

  const robust::WorkerPoolResult res = robust::run_worker_pool(fix.tasks, pool);
  ASSERT_EQ(res.results.size(), 2u);
  for (const robust::WorkerTaskResult& r : res.results) {
    EXPECT_EQ(r.outcome, robust::WorkerOutcome::kOk) << r.detail;
  }
  EXPECT_EQ(res.stats.remote_clean, 0);
  EXPECT_FALSE(res.interrupted);
}

TEST(DistributedPool, GateRejectionWalksReassignmentLadder) {
  // A gate that rejects everything models a Byzantine remote: each
  // remote result is refused (counted as a certificate reject) and the
  // cap must still settle kOk via the forced-local rung.
  ScratchDir dir("pool_gate");
  ASSERT_TRUE(dir.ok());
  Daemon d;
  start_daemon(dir, "d", {}, &d);
  ASSERT_GT(d.ep.port, 0);
  PoolFixture fix({120.0});
  fix.remote.remotes = {d.ep};
  robust::WorkerPoolOptions pool;
  // No ordinary local mixing: the cap must go remote first, get
  // rejected, and come back through the ladder's forced-local rung.
  pool.workers = 0;
  pool.remote = fix.remote;
  pool.remote.gate = [](const JournalEntry&, const std::string&) {
    return robust::Status(StatusCode::kCertificateFailed,
                          "test gate says no");
  };
  std::vector<robust::TransportTelemetry> transports;
  const robust::WorkerPoolResult res = robust::run_worker_pool(
      fix.tasks, pool, util::Deadline{},
      [&](const robust::WorkerTaskResult& r, std::size_t) {
        transports.push_back(r.transport);
      });
  EXPECT_EQ(d.stop(), 0);

  ASSERT_EQ(res.results.size(), 1u);
  EXPECT_EQ(res.results[0].outcome, robust::WorkerOutcome::kOk)
      << res.results[0].detail;
  EXPECT_GE(res.stats.certificate_rejects, 1);
  EXPECT_GE(res.stats.remote_failures, 1);
  EXPECT_EQ(res.stats.remote_clean, 0);
  // The settling solve was local, after at least one lost remote attempt.
  ASSERT_EQ(transports.size(), 1u);
  EXPECT_FALSE(transports[0].remote);
  EXPECT_GE(transports[0].retries, 1);
}

TEST(DistributedPool, CrashOnEveryAttemptUsesTheWholeRemoteLadder) {
  // With remotes the ladder allows three attempts, where a local-only
  // pool allows two (WorkerPool.CrashOnEveryAttemptSettlesWorkerCrashed).
  // The only endpoint is dead, so every attempt runs - and dies - on the
  // one local worker.
  const int port = dead_port();
  ASSERT_GT(port, 0);
  PoolFixture fix({90.0});
  fix.tasks[0].run = [](int) -> JournalEntry { std::abort(); };
  fix.remote.remotes = {{"127.0.0.1", port}};
  robust::WorkerPoolOptions pool;
  pool.workers = 1;
  pool.remote = fix.remote;

  const robust::WorkerPoolResult res = robust::run_worker_pool(fix.tasks, pool);
  ASSERT_EQ(res.results.size(), 1u);
  EXPECT_EQ(res.results[0].outcome, robust::WorkerOutcome::kCrashed);
  EXPECT_EQ(res.results[0].spawns, 3);
  EXPECT_EQ(res.stats.crashes, 3);
  EXPECT_EQ(res.stats.remote_clean, 0);
  EXPECT_FALSE(res.interrupted);
}

}  // namespace
}  // namespace powerlim
