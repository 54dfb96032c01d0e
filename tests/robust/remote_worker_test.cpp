// Remote serve-worker + distributed pool contract, below the CLI:
// protocol round-trips, a real serve-worker process driven over a raw
// socket (handshake, job, heartbeats, result + solution artifact,
// version rejection, graceful SIGTERM drain), and the worker pool's
// remote semantics (remote settling, dead-endpoint drain to local,
// Byzantine gate rejection walking the reassignment ladder, the ladder's
// attempt limit).
#include "robust/remote_worker.h"

#include <signal.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
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
#include "util/deadline.h"
#include "util/socket_io.h"

namespace powerlim::robust {
namespace {

dag::TaskGraph small_graph() {
  return apps::make_comd({.ranks = 2, .iterations = 2, .seed = 5});
}

TEST(RemoteProtocol, HandshakeRoundTrips) {
  RemoteSolveConfig config;
  config.cap_deadline_ms = 1234.5;
  config.validate_replay = false;
  config.verify_certificate = true;
  config.discrete = true;
  const dag::TaskGraph g = small_graph();
  const std::string payload = encode_handshake(config, g);
  EXPECT_EQ(payload.rfind(kRemoteProtoMagic, 0), 0u);

  RemoteSolveConfig back;
  std::string trace_text, error;
  ASSERT_TRUE(decode_handshake(payload, &back, &trace_text, &error)) << error;
  EXPECT_EQ(back.cap_deadline_ms, 1234.5);
  EXPECT_FALSE(back.validate_replay);
  EXPECT_TRUE(back.verify_certificate);
  EXPECT_TRUE(back.discrete);
  // The trace text must itself parse back to the same task count.
  std::istringstream in(trace_text);
  const dag::TaskGraph g2 = dag::read_trace(in, "<test>");
  EXPECT_EQ(g2.num_edges(), g.num_edges());
}

TEST(RemoteProtocol, HandshakeRejectsVersionSkewAndGarbage) {
  RemoteSolveConfig config;
  std::string trace_text, error;
  EXPECT_FALSE(decode_handshake("", &config, &trace_text, &error));
  EXPECT_FALSE(
      decode_handshake("powerlim-remote v0\nconfig\n", &config, &trace_text,
                       &error));
  EXPECT_NE(error.find("protocol mismatch"), std::string::npos);
  EXPECT_FALSE(decode_handshake(std::string(kRemoteProtoMagic) + "\n",
                                &config, &trace_text, &error));
  EXPECT_FALSE(decode_handshake(std::string(kRemoteProtoMagic) +
                                    "\nconfig nonsense\ntrace",
                                &config, &trace_text, &error));
}

TEST(RemoteProtocol, JobRoundTripsExactCap) {
  // %.17g: the remote must solve the bit-identical cap.
  const double cap = 100.0 / 3.0;
  double back = 0.0;
  int attempt = -1;
  ASSERT_TRUE(decode_job(encode_job(cap, 1), &back, &attempt));
  EXPECT_EQ(back, cap);  // exact, not near
  EXPECT_EQ(attempt, 1);
  EXPECT_FALSE(decode_job("cap=notanumber attempt=0", &back, &attempt));
  EXPECT_FALSE(decode_job("", &back, &attempt));
}

// --- a real serve-worker child, driven over a raw socket ---

struct ServeChild {
  pid_t pid = -1;
  util::Endpoint ep;
};

util::CancelToken& serve_cancel() {
  static util::CancelToken token;
  return token;
}

// powerlint: allow(signal-unsafe) -- serve_cancel's static local is initialized before the handler is registered, so the accessor is a plain load and cancel() is one relaxed atomic store
extern "C" void serve_sigterm(int) { serve_cancel().cancel(); }

/// Forks a serve_worker on an ephemeral port and waits for the port
/// file. `once` defaults true so the child exits after one connection.
ServeChild start_serve_worker(NetFault fault = NetFault::kNone,
                              bool once = true) {
  const std::string port_file =
      ::testing::TempDir() + "serve_port_" + std::to_string(::getpid()) +
      "_" + std::to_string(::rand());
  std::remove(port_file.c_str());
  const pid_t pid = fork();
  if (pid == 0) {
    // Run the accessor once before registering the handler: a first
    // call from inside the handler would do static-local init under a
    // guard lock, which is not async-signal-safe.
    util::CancelToken& cancel = serve_cancel();
    signal(SIGTERM, serve_sigterm);
    ServeWorkerOptions opt;
    opt.listen = {"127.0.0.1", 0};
    opt.port_file = port_file;
    opt.once = once;
    opt.heartbeat_ms = 50.0;
    opt.fault = fault;
    opt.cancel = &cancel;
    std::ostringstream out, err;
    _exit(serve_worker(opt, out, err));
  }
  ServeChild child;
  child.pid = pid;
  child.ep.host = "127.0.0.1";
  for (int i = 0; i < 200 && child.ep.port == 0; ++i) {
    std::ifstream f(port_file);
    int port = 0;
    if (f >> port && port > 0) {
      child.ep.port = port;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  std::remove(port_file.c_str());
  return child;
}

int wait_exit(pid_t pid) {
  int status = 0;
  if (waitpid(pid, &status, 0) != pid) return -1;
  return WIFEXITED(status) ? WEXITSTATUS(status) : -WTERMSIG(status);
}

/// Reads frames from `fd` until `tag` arrives (collecting everything),
/// or ~10 s pass. Returns true when found.
bool read_until_tag(int fd, FrameStream* stream, char tag,
                    std::vector<WireFrame>* got) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (std::chrono::steady_clock::now() < deadline) {
    WireFrame f;
    while (stream->next(&f) == WireDecode::kOk) {
      got->push_back(f);
      if (f.tag == tag) return true;
    }
    if (stream->poisoned()) return false;
    std::string chunk;
    const util::IoStatus st = util::recv_some(fd, &chunk);
    if (st == util::IoStatus::kDisconnected) return false;
    if (st == util::IoStatus::kOk) stream->feed(chunk);
  }
  return false;
}

TEST(ServeWorker, SolvesAJobEndToEndWithHeartbeatsAndArtifact) {
  const ServeChild child = start_serve_worker();
  ASSERT_GT(child.ep.port, 0);
  std::string error;
  const int fd = util::connect_timeout(child.ep, 5.0, &error);
  ASSERT_GE(fd, 0) << error;

  const dag::TaskGraph g = small_graph();
  RemoteSolveConfig config;
  config.cap_deadline_ms = 60'000.0;
  const std::string hs = encode_wire_frame('T', encode_handshake(config, g));
  ASSERT_EQ(util::send_all(fd, hs.data(), hs.size(), 5.0),
            util::IoStatus::kOk);
  FrameStream stream;
  std::vector<WireFrame> frames;
  ASSERT_TRUE(read_until_tag(fd, &stream, 'A', &frames));
  EXPECT_EQ(frames.back().payload, "ok");

  const double cap = 120.0;
  const std::string job = encode_wire_frame('J', encode_job(cap, 0));
  ASSERT_EQ(util::send_all(fd, job.data(), job.size(), 5.0),
            util::IoStatus::kOk);
  frames.clear();
  ASSERT_TRUE(read_until_tag(fd, &stream, 'R', &frames));
  JournalEntry entry;
  ASSERT_TRUE(parse_journal_entry(frames.back().payload, &entry));
  EXPECT_EQ(entry.job_cap_watts, cap);
  EXPECT_EQ(entry.verdict, StatusCode::kOk);
  EXPECT_GT(entry.bound_seconds, 0.0);
  // The worker stamps isolated-worker telemetry like a local pool child.
  EXPECT_NE(entry.report_json.find("\"isolated\":true"), std::string::npos);

  // Every kOk 'R' is followed by the 'S' solution artifact.
  frames.clear();
  ASSERT_TRUE(read_until_tag(fd, &stream, 'S', &frames));
  EXPECT_NE(frames.back().payload.find("schedule"), std::string::npos);

  const std::string quit = encode_wire_frame('Q', "");
  util::send_all(fd, quit.data(), quit.size(), 5.0);
  ::close(fd);
  EXPECT_EQ(wait_exit(child.pid), 0);
}

TEST(ServeWorker, RejectsVersionSkewWithCleanAck) {
  const ServeChild child = start_serve_worker();
  ASSERT_GT(child.ep.port, 0);
  std::string error;
  const int fd = util::connect_timeout(child.ep, 5.0, &error);
  ASSERT_GE(fd, 0) << error;
  const std::string bad =
      encode_wire_frame('T', "powerlim-remote v999\nconfig\ntrace");
  ASSERT_EQ(util::send_all(fd, bad.data(), bad.size(), 5.0),
            util::IoStatus::kOk);
  FrameStream stream;
  std::vector<WireFrame> frames;
  ASSERT_TRUE(read_until_tag(fd, &stream, 'A', &frames));
  EXPECT_EQ(frames.back().payload.rfind("error ", 0), 0u)
      << frames.back().payload;
  EXPECT_NE(frames.back().payload.find("protocol mismatch"),
            std::string::npos);
  ::close(fd);
  EXPECT_EQ(wait_exit(child.pid), 0);
}

TEST(ServeWorker, SigtermDrainsGracefullyMidConnection) {
  // Satellite contract: SIGTERM while a connection is up (and a job
  // possibly in flight) finishes/cancels via the CancelToken, flushes a
  // final frame, and exits 0 - never a crash, never a hang.
  const ServeChild child = start_serve_worker(NetFault::kNone, false);
  ASSERT_GT(child.ep.port, 0);
  std::string error;
  const int fd = util::connect_timeout(child.ep, 5.0, &error);
  ASSERT_GE(fd, 0) << error;
  const dag::TaskGraph g =
      apps::make_comd({.ranks = 4, .iterations = 16, .seed = 5});
  RemoteSolveConfig config;
  config.cap_deadline_ms = 60'000.0;
  const std::string hs = encode_wire_frame('T', encode_handshake(config, g));
  ASSERT_EQ(util::send_all(fd, hs.data(), hs.size(), 5.0),
            util::IoStatus::kOk);
  FrameStream stream;
  std::vector<WireFrame> frames;
  ASSERT_TRUE(read_until_tag(fd, &stream, 'A', &frames));
  ASSERT_EQ(frames.back().payload, "ok");
  const std::string job = encode_wire_frame('J', encode_job(60.0, 0));
  ASSERT_EQ(util::send_all(fd, job.data(), job.size(), 5.0),
            util::IoStatus::kOk);

  // Let the solve start, then terminate the worker.
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  ASSERT_EQ(kill(child.pid, SIGTERM), 0);

  // The final frame is flushed before exit: either the solve finished
  // (kOk) or the cancel landed mid-solve (the 'R' carries kCancelled,
  // or the child classified it as an 'E' attempt failure).
  frames.clear();
  bool got_final = read_until_tag(fd, &stream, 'R', &frames);
  if (!got_final) {
    for (const WireFrame& f : frames) got_final |= f.tag == 'E';
  }
  EXPECT_TRUE(got_final) << frames.size() << " frames, none final";
  ::close(fd);
  EXPECT_EQ(wait_exit(child.pid), 0);
}

// --- worker pool semantics with remotes ---

struct PoolFixture {
  dag::TaskGraph graph = small_graph();
  machine::PowerModel model{machine::SocketSpec{}};
  machine::ClusterSpec cluster;
  std::vector<WorkerTaskSpec> tasks;
  RemoteWorkerOptions remote;

  explicit PoolFixture(const std::vector<double>& caps) {
    for (double cap : caps) {
      WorkerTaskSpec spec;
      spec.job_cap_watts = cap;
      spec.run = [this, cap](int attempt) {
        SolveDriverOptions opt;
        opt.cap_deadline_ms = 60'000.0;
        const SolveOutcome o =
            SolveDriver(graph, model, cluster, opt).solve(cap);
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
    RemoteSolveConfig config;
    config.cap_deadline_ms = 60'000.0;
    remote.handshake = encode_handshake(config, graph);
    remote.heartbeat_timeout_ms = 5000.0;
    remote.connect_timeout_ms = 1000.0;
    remote.backoff_initial_ms = 5.0;
    remote.backoff_max_ms = 50.0;
  }
};

TEST(DistributedPool, AllCapsSettleRemotelyWithLocalWorkersDisabled) {
  const ServeChild child = start_serve_worker();
  ASSERT_GT(child.ep.port, 0);
  PoolFixture fix({120.0, 110.0, 100.0});
  fix.remote.remotes = {child.ep};
  WorkerPoolOptions pool;
  pool.workers = 0;  // remote-only: locals exist only as ladder fallback
  pool.remote = fix.remote;

  std::vector<TransportTelemetry> transports;
  const WorkerPoolResult res = run_worker_pool(
      fix.tasks, pool, util::Deadline{},
      [&](const WorkerTaskResult& r, std::size_t) {
        EXPECT_EQ(r.outcome, WorkerOutcome::kOk);
        transports.push_back(r.transport);
      });
  kill(child.pid, SIGTERM);
  wait_exit(child.pid);

  ASSERT_EQ(res.results.size(), 3u);
  for (const WorkerTaskResult& r : res.results) {
    EXPECT_EQ(r.outcome, WorkerOutcome::kOk);
    EXPECT_EQ(r.entry.verdict, StatusCode::kOk);
  }
  EXPECT_EQ(res.stats.remote_clean, 3);
  EXPECT_EQ(res.stats.remote_failures, 0);
  ASSERT_EQ(transports.size(), 3u);
  for (const TransportTelemetry& t : transports) {
    EXPECT_TRUE(t.remote);
    EXPECT_EQ(t.endpoint, util::to_string(child.ep));
    EXPECT_EQ(t.retries, 0);
  }
}

TEST(DistributedPool, DeadEndpointDrainsToLocalWorkers) {
  // Nothing listens on the endpoint: after max_connect_failures backoff
  // rounds the remote is declared dead and every cap settles locally.
  std::string error;
  const int lfd = util::listen_tcp("127.0.0.1", 0, &error);
  ASSERT_GE(lfd, 0) << error;
  const int dead_port = util::bound_port(lfd);
  ::close(lfd);

  PoolFixture fix({120.0, 110.0});
  fix.remote.remotes = {{"127.0.0.1", dead_port}};
  fix.remote.max_connect_failures = 2;
  WorkerPoolOptions pool;
  pool.workers = 2;
  pool.remote = fix.remote;

  const WorkerPoolResult res = run_worker_pool(fix.tasks, pool);
  ASSERT_EQ(res.results.size(), 2u);
  for (const WorkerTaskResult& r : res.results) {
    EXPECT_EQ(r.outcome, WorkerOutcome::kOk) << r.detail;
  }
  EXPECT_EQ(res.stats.remote_clean, 0);
  EXPECT_FALSE(res.interrupted);
}

TEST(DistributedPool, GateRejectionWalksReassignmentLadder) {
  // A gate that rejects everything models a Byzantine remote: each
  // remote result is refused (counted as a certificate reject) and the
  // cap must still settle kOk via the forced-local rung.
  const ServeChild child = start_serve_worker();
  ASSERT_GT(child.ep.port, 0);
  PoolFixture fix({120.0});
  fix.remote.remotes = {child.ep};
  WorkerPoolOptions pool;
  // No ordinary local mixing: the cap must go remote first, get
  // rejected, and come back through the ladder's forced-local rung.
  pool.workers = 0;
  pool.remote = fix.remote;
  pool.remote.gate = [](const JournalEntry&, const std::string&) {
    return Status(StatusCode::kCertificateFailed, "test gate says no");
  };
  std::vector<TransportTelemetry> transports;
  const WorkerPoolResult res = run_worker_pool(
      fix.tasks, pool, util::Deadline{},
      [&](const WorkerTaskResult& r, std::size_t) {
        transports.push_back(r.transport);
      });
  kill(child.pid, SIGTERM);
  wait_exit(child.pid);

  ASSERT_EQ(res.results.size(), 1u);
  EXPECT_EQ(res.results[0].outcome, WorkerOutcome::kOk)
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
  std::string error;
  const int lfd = util::listen_tcp("127.0.0.1", 0, &error);
  ASSERT_GE(lfd, 0) << error;
  const int dead_port = util::bound_port(lfd);
  ::close(lfd);

  PoolFixture fix({90.0});
  fix.tasks[0].run = [](int) -> JournalEntry { std::abort(); };
  fix.remote.remotes = {{"127.0.0.1", dead_port}};
  WorkerPoolOptions pool;
  pool.workers = 1;
  pool.remote = fix.remote;

  const WorkerPoolResult res = run_worker_pool(fix.tasks, pool);
  ASSERT_EQ(res.results.size(), 1u);
  EXPECT_EQ(res.results[0].outcome, WorkerOutcome::kCrashed);
  EXPECT_EQ(res.results[0].spawns, 3);
  EXPECT_EQ(res.stats.crashes, 3);
  EXPECT_EQ(res.stats.remote_clean, 0);
  EXPECT_FALSE(res.interrupted);
}

}  // namespace
}  // namespace powerlim::robust
