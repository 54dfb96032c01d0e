// Lifecycle and overload-containment acceptance for powerlimd, driven
// through the real CLI (`powerlim serve`) in a forked child:
//
//   * SIGTERM drains: the active request finishes, queued requests are
//     shed as 'O draining', and the daemon exits 0;
//   * a stalled client holding a partial frame is reaped on the
//     handshake timeout and cannot block honest clients;
//   * with the admission queue full, new requests get 'overloaded
//     queue-full' promptly while admitted requests still complete;
//   * hostile bytes on the daemon socket - oversized length prefixes
//     and random fuzz - drop that connection only (satellite: shared
//     kMaxFrameBytes ceiling enforced at the daemon socket);
//   * SIGHUP (journal reopen) does not disturb service;
//   * a trace that only shares another trace's CRC-32 hash is refused,
//     not answered from the other trace's journal, and a snapshot write
//     that fails leaves nothing that would refuse the trace later.
#include <signal.h>
#include <sys/resource.h>
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

#include "dag/trace_io.h"
#include "forged_trace.h"
#include "robust/journal.h"
#include "robust/wire.h"
#include "scratch_dir.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "tools/cli.h"
#include "util/socket_io.h"

namespace powerlim::cli {
namespace {

using serve::CollectResult;
using serve::CollectStatus;
using serve::ServeClient;
using serve::ServeRequest;

/// A forked `powerlim serve` child. The destructor SIGKILLs a daemon a
/// failed assertion left behind - otherwise the orphan inherits the
/// test's stdio and wedges any pipeline reading it.
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

/// Shared fixture: a light CoMD trace (2 ranks - requests finish in
/// tens of ms) and a heavy one (16 ranks x 30 iterations - a 16-cap
/// request occupies the single active slot for about a second, long
/// enough that queue/drain scenarios are deterministic). The traces are
/// written once per test process in its own scratch directory; every
/// test also gets a scratch directory of its own for the daemons'
/// state dirs and port files.
class PowerlimdLifecycle : public ::testing::Test {
 protected:
  static std::string load_trace(const std::string& name, int ranks,
                                int iterations) {
    const std::string path = suite_dir_->path(name);
    std::ostringstream out, err;
    EXPECT_EQ(run({"trace", "comd", "-o", path, "--ranks",
                   std::to_string(ranks), "--iterations",
                   std::to_string(iterations)},
                  out, err),
              0);
    std::ifstream f(path);
    std::ostringstream ss;
    ss << f.rdbuf();
    return ss.str();
  }

  static void SetUpTestSuite() {
    suite_dir_ = new ScratchDir("powerlimd_suite");
    ASSERT_TRUE(suite_dir_->ok());
    trace_text_ = new std::string(load_trace("powerlimd_trace", 2, 3));
    heavy_text_ =
        new std::string(load_trace("powerlimd_trace_heavy", 16, 30));
    ASSERT_FALSE(trace_text_->empty());
    ASSERT_FALSE(heavy_text_->empty());
  }

  static void TearDownTestSuite() {
    delete trace_text_;
    delete heavy_text_;
    delete suite_dir_;
  }

  void SetUp() override { ASSERT_TRUE(scratch_.ok()); }

  /// Starts a daemon with a fresh state dir and port file in this
  /// test's scratch directory.
  Daemon start_daemon(std::vector<std::string> extra_args) {
    const std::string tag = std::to_string(daemons_started_++);
    return launch_daemon(scratch_.path("port_" + tag),
                         scratch_.path("state_" + tag),
                         std::move(extra_args));
  }

  static ServeRequest request(const std::string& id, int n) {
    ServeRequest req;
    req.id = id;
    req.kind = n == 1 ? "bound" : "sweep";
    for (int i = 0; i < n; ++i) req.caps.push_back(2 * (30.0 + 2.5 * i));
    req.trace_text = *trace_text_;
    return req;
  }

  /// A request that takes on the order of a second to solve.
  static ServeRequest heavy_request(const std::string& id, int n) {
    ServeRequest req;
    req.id = id;
    req.kind = "sweep";
    for (int i = 0; i < n; ++i) req.caps.push_back(16 * (30.0 + 2.5 * i));
    req.trace_text = *heavy_text_;
    return req;
  }

  static ScratchDir* suite_dir_;
  static std::string* trace_text_;
  static std::string* heavy_text_;

 private:
  ScratchDir scratch_{"powerlimd"};
  int daemons_started_ = 0;
};

ScratchDir* PowerlimdLifecycle::suite_dir_ = nullptr;
std::string* PowerlimdLifecycle::trace_text_ = nullptr;
std::string* PowerlimdLifecycle::heavy_text_ = nullptr;

TEST_F(PowerlimdLifecycle, SigtermDrainsActiveAndShedsQueued) {
  Daemon d = start_daemon({"--max-active", "1"});
  ASSERT_GT(d.endpoint.port, 0);

  // A large request occupies the single active slot; a second queues
  // behind it. SIGTERM must finish A, shed-or-finish B, and exit 0.
  ServeClient a, b;
  ASSERT_TRUE(a.connect(d.endpoint).ok());
  ASSERT_TRUE(b.connect(d.endpoint).ok());
  ASSERT_TRUE(a.submit(heavy_request("drain-a", 16)).ok());
  ASSERT_TRUE(b.submit(heavy_request("drain-b", 16)).ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  kill(d.pid, SIGTERM);

  const CollectResult got_a = a.collect("drain-a", 60.0);
  EXPECT_EQ(got_a.status, CollectStatus::kDone);
  EXPECT_EQ(got_a.done.status, "ok");
  EXPECT_EQ(got_a.rows.size(), 16u);

  const CollectResult got_b = b.collect("drain-b", 60.0);
  if (got_b.status == CollectStatus::kOverloaded) {
    EXPECT_EQ(got_b.overloaded.reason, "draining");
  } else {
    // B only escapes the shed if A finished before the signal landed.
    EXPECT_EQ(got_b.status, CollectStatus::kDone) << got_b.error_detail;
  }

  int status = 0;
  ASSERT_EQ(waitpid(d.pid, &status, 0), d.pid);
  d.pid = -1;
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
}

TEST_F(PowerlimdLifecycle, StalledClientCannotBlockOthers) {
  Daemon d = start_daemon({"--io-timeout-s", "1"});
  ASSERT_GT(d.endpoint.port, 0);

  // A peer that sends two bytes of a frame and then nothing.
  std::string error;
  const int staller = util::connect_timeout(d.endpoint, 5.0, &error);
  ASSERT_GE(staller, 0) << error;
  ASSERT_EQ(util::send_all(staller, "W ", 2, 5.0), util::IoStatus::kOk);

  // Honest traffic keeps flowing while the staller squats.
  ServeClient honest;
  ASSERT_TRUE(honest.connect(d.endpoint).ok());
  ASSERT_TRUE(honest.submit(request("honest", 2)).ok());
  const CollectResult got = honest.collect("honest", 60.0);
  EXPECT_EQ(got.status, CollectStatus::kDone);
  EXPECT_EQ(got.done.status, "ok");

  // The staller is reaped on the handshake timeout: its socket reaches
  // EOF without it ever completing a frame.
  std::string drained;
  EXPECT_TRUE(robust::drain_fd(staller, &drained));
  ::close(staller);

  EXPECT_EQ(d.stop(), 0);
}

TEST_F(PowerlimdLifecycle, QueueFullShedsPromptlyWhileAdmittedComplete) {
  Daemon d = start_daemon({"--max-active", "1", "--max-queue", "1"});
  ASSERT_GT(d.endpoint.port, 0);

  ServeClient a, b, c;
  ASSERT_TRUE(a.connect(d.endpoint).ok());
  ASSERT_TRUE(b.connect(d.endpoint).ok());
  ASSERT_TRUE(c.connect(d.endpoint).ok());
  // A occupies the active slot, B the whole queue; C must be shed
  // immediately, not after A and B's solve time.
  ASSERT_TRUE(a.submit(heavy_request("full-a", 16)).ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  ASSERT_TRUE(b.submit(heavy_request("full-b", 16)).ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  const auto t0 = std::chrono::steady_clock::now();
  ASSERT_TRUE(c.submit(heavy_request("full-c", 16)).ok());
  const CollectResult got_c = c.collect("full-c", 60.0);
  const double shed_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - t0)
          .count();
  ASSERT_EQ(got_c.status, CollectStatus::kOverloaded)
      << serve::to_string(got_c.status);
  EXPECT_EQ(got_c.overloaded.reason, "queue-full");
  // Shedding is an admission decision, not a solve: it must come back
  // well inside the time either admitted request needs.
  EXPECT_LT(shed_ms, 2000.0);

  const CollectResult got_a = a.collect("full-a", 60.0);
  EXPECT_EQ(got_a.status, CollectStatus::kDone);
  EXPECT_EQ(got_a.done.status, "ok");
  const CollectResult got_b = b.collect("full-b", 60.0);
  EXPECT_EQ(got_b.status, CollectStatus::kDone);
  EXPECT_EQ(got_b.done.status, "ok");
  // The done summaries carry the shed counter (schema-6 service
  // telemetry travels per-row; the terminal frame carries the totals).
  EXPECT_GE(got_b.done.shed_total, 1);

  EXPECT_EQ(d.stop(), 0);
}

TEST_F(PowerlimdLifecycle, HostileFramesDropOnlyTheirConnection) {
  Daemon d = start_daemon({"--io-timeout-s", "2"});
  ASSERT_GT(d.endpoint.port, 0);

  // An oversized length prefix (past kMaxWirePayload, i.e. past the
  // shared kMaxFrameBytes ceiling) must be rejected before any
  // allocation happens, by dropping the connection.
  {
    std::string error;
    const int fd = util::connect_timeout(d.endpoint, 5.0, &error);
    ASSERT_GE(fd, 0) << error;
    std::ostringstream hostile;
    hostile << "W T 00000000 " << (robust::kMaxWirePayload + 1) << "\n";
    ASSERT_EQ(util::send_all(fd, hostile.str().data(), hostile.str().size(),
                             5.0),
              util::IoStatus::kOk);
    std::string drained;
    EXPECT_TRUE(robust::drain_fd(fd, &drained));  // daemon closes on us
    EXPECT_TRUE(drained.empty());                 // and never acks
    ::close(fd);
  }

  // Deterministic fuzz: a dozen connections spraying pseudo-random
  // bytes. None may take the daemon down.
  std::uint64_t rng = 0x9e3779b97f4a7c15ull;
  for (int round = 0; round < 12; ++round) {
    std::string error;
    const int fd = util::connect_timeout(d.endpoint, 5.0, &error);
    ASSERT_GE(fd, 0) << error << " round " << round;
    std::string bytes;
    const int len = 32 + static_cast<int>(rng % 224);
    for (int i = 0; i < len; ++i) {
      rng = rng * 6364136223846793005ull + 1442695040888963407ull;
      bytes.push_back(static_cast<char>(rng >> 33));
    }
    (void)util::send_all(fd, bytes.data(), bytes.size(), 5.0);
    ::close(fd);
  }

  // The daemon is still healthy for honest clients afterwards.
  ServeClient honest;
  ASSERT_TRUE(honest.connect(d.endpoint).ok());
  ASSERT_TRUE(honest.submit(request("after-fuzz", 2)).ok());
  const CollectResult got = honest.collect("after-fuzz", 60.0);
  EXPECT_EQ(got.status, CollectStatus::kDone);
  EXPECT_EQ(got.done.status, "ok");

  EXPECT_EQ(d.stop(), 0);
}

TEST_F(PowerlimdLifecycle, SighupReopensJournalsWithoutDisturbingService) {
  Daemon d = start_daemon({});
  ASSERT_GT(d.endpoint.port, 0);

  ServeClient client;
  ASSERT_TRUE(client.connect(d.endpoint).ok());
  ASSERT_TRUE(client.submit(request("pre-hup", 2)).ok());
  EXPECT_EQ(client.collect("pre-hup", 60.0).status, CollectStatus::kDone);

  kill(d.pid, SIGHUP);
  std::this_thread::sleep_for(std::chrono::milliseconds(300));

  ASSERT_TRUE(client.submit(request("post-hup", 2)).ok());
  const CollectResult got = client.collect("post-hup", 60.0);
  EXPECT_EQ(got.status, CollectStatus::kDone);
  EXPECT_EQ(got.done.status, "ok");
  // The second request re-served its caps from the journal the first
  // one wrote - proof the reopened journal is the same file.
  EXPECT_EQ(got.done.resumed, 2);

  EXPECT_EQ(d.stop(), 0);
}

// powerlimd keys journals by CRC-32, which four chosen bytes can forge.
// A trace that only shares another's hash must get an error, never the
// other trace's proven rows.
TEST_F(PowerlimdLifecycle, TraceHashCollisionIsRefusedNotServed) {
  const std::string forged = same_crc_other_trace(*trace_text_);
  ASSERT_NE(forged, *trace_text_);
  ASSERT_EQ(robust::crc32(forged.data(), forged.size()),
            robust::crc32(trace_text_->data(), trace_text_->size()));
  {
    std::istringstream in(forged);
    ASSERT_NO_THROW((void)dag::read_trace(in, "forged"));
  }

  Daemon d = start_daemon({});
  ASSERT_GT(d.endpoint.port, 0);
  ServeClient client;
  ASSERT_TRUE(client.connect(d.endpoint).ok());
  ASSERT_TRUE(client.submit(request("genuine", 2)).ok());
  ASSERT_EQ(client.collect("genuine", 60.0).status, CollectStatus::kDone);

  ServeRequest collide = request("collide", 2);
  collide.trace_text = forged;
  ASSERT_TRUE(client.submit(collide).ok());
  const CollectResult got = client.collect("collide", 60.0);
  EXPECT_EQ(got.status, CollectStatus::kRequestError);
  EXPECT_TRUE(got.rows.empty());
  EXPECT_NE(got.error_detail.find("different trace"), std::string::npos)
      << got.error_detail;

  // The genuine trace is still served from its journal.
  ASSERT_TRUE(client.submit(request("again", 2)).ok());
  const CollectResult again = client.collect("again", 60.0);
  EXPECT_EQ(again.status, CollectStatus::kDone);
  EXPECT_EQ(again.done.resumed, 2);

  EXPECT_EQ(d.stop(), 0);
}

// A trace snapshot whose write fails (here it outgrows a file-size
// limit) must not stay behind torn: the next daemon on the state dir
// would take it for another trace's snapshot and refuse this trace.
TEST_F(PowerlimdLifecycle, FailedSnapshotWriteLeavesNoTornSnapshot) {
  constexpr rlim_t kLimitBytes = 512;
  ASSERT_GT(trace_text_->size(), kLimitBytes);
  rlimit unlimited = {};
  ASSERT_EQ(getrlimit(RLIMIT_FSIZE, &unlimited), 0);
  rlimit limited = unlimited;
  limited.rlim_cur = kLimitBytes;
  // The forked daemon inherits both: writes past the limit fail with
  // EFBIG instead of killing it with SIGXFSZ.
  const auto prev = ::signal(SIGXFSZ, SIG_IGN);
  ASSERT_EQ(setrlimit(RLIMIT_FSIZE, &limited), 0);
  Daemon d = start_daemon({});
  ASSERT_EQ(setrlimit(RLIMIT_FSIZE, &unlimited), 0);
  ::signal(SIGXFSZ, prev);
  ASSERT_GT(d.endpoint.port, 0);
  {
    ServeClient client;
    ASSERT_TRUE(client.connect(d.endpoint).ok());
    ASSERT_TRUE(client.submit(request("limited", 2)).ok());
    const CollectResult got = client.collect("limited", 60.0);
    EXPECT_EQ(got.status, CollectStatus::kRequestError);
    EXPECT_NE(got.error_detail.find("cannot persist trace snapshot"),
              std::string::npos)
        << got.error_detail;
  }
  EXPECT_EQ(d.stop(), 0);

  Daemon again = launch_daemon(d.state_dir + ".port", d.state_dir, {});
  ASSERT_GT(again.endpoint.port, 0);
  ServeClient client;
  ASSERT_TRUE(client.connect(again.endpoint).ok());
  ASSERT_TRUE(client.submit(request("unlimited", 2)).ok());
  const CollectResult got = client.collect("unlimited", 60.0);
  EXPECT_EQ(got.status, CollectStatus::kDone) << got.error_detail;
  EXPECT_EQ(got.rows.size(), 2u);
  EXPECT_EQ(again.stop(), 0);
}

TEST_F(PowerlimdLifecycle, VersionSkewedClientIsRejectedAtHello) {
  Daemon d = start_daemon({});
  ASSERT_GT(d.endpoint.port, 0);

  std::string error;
  const int fd = util::connect_timeout(d.endpoint, 5.0, &error);
  ASSERT_GE(fd, 0) << error;
  const std::string skewed = robust::encode_wire_frame(
      serve::kTagHello, std::string(serve::kServeProtoMagic) +
                            "\nschema=999 proto=999");
  ASSERT_EQ(util::send_all(fd, skewed.data(), skewed.size(), 5.0),
            util::IoStatus::kOk);
  std::string reply_bytes;
  ASSERT_TRUE(robust::drain_fd(fd, &reply_bytes));
  ::close(fd);

  // Exactly one 'A' frame with an error ack, then the daemon hung up.
  robust::WireFrame frame;
  ASSERT_EQ(robust::decode_wire_frame(reply_bytes, &frame),
            robust::WireDecode::kOk);
  EXPECT_EQ(frame.tag, serve::kTagHelloAck);
  EXPECT_EQ(frame.payload.rfind("error ", 0), 0u) << frame.payload;
  EXPECT_NE(frame.payload.find("version skew"), std::string::npos)
      << frame.payload;

  EXPECT_EQ(d.stop(), 0);
}

}  // namespace
}  // namespace powerlim::cli
