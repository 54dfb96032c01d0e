// serve-mixed: one forked powerlimd (serve::serve with default
// ServeOptions) under open-loop traffic from this process: at most
// kConnections connections, one thread each.
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <csignal>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "common.h"
#include "dag/trace_io.h"
#include "layers.h"
#include "robust/journal.h"
#include "robust/solve_driver.h"
#include "robust/wire.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "util/deadline.h"
#include "util/socket_io.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace pl = powerlim;
namespace fs = std::filesystem;
using pl::serve::CollectStatus;

/// Load-generator limits: one thread per connection, never more. Writes
/// get one connection of their own and reads the rest, so a read never
/// waits behind a write that holds its connection for a whole solve.
constexpr int kConnections = 4;
constexpr int kWriteConnections = 1;
/// Share of requests that are writes (fresh-cap `bound` requests). A
/// read that arrives while a write's executor runs takes longer in the
/// daemon. Over five runs at 10% writes the read p50 and tail spread
/// 0.105 and 0.187 of their medians; at 5%, 0.081 and 0.151.
constexpr double kWriteShare = 0.05;
/// Offered rate of the fixed-rate phase, requests/s, and its request
/// count: at least this many, or --seconds worth. 556 requests are 528
/// reads and 28 writes; 500 reads or more give a p98 read tail.
constexpr double kFixedRate = 20.0;
constexpr std::size_t kFixedRequests = 556;
/// max_rps passes a rate only while both tails stay under these.
constexpr double kReadLimitMs = 250.0;
constexpr double kWriteLimitMs = 1000.0;
/// Each max_rps probe offers this many seconds of evenly paced traffic;
/// bisection from 40 req/s reaches 5% in six probes. Pacing makes a
/// probe measure capacity: with ~16 Poisson writes per probe, whether a
/// backlog grew depended more on the draw than on the daemon.
constexpr double kProbeSeconds = 4.0;
constexpr std::size_t kMinProbeRequests = 100;
constexpr int kMaxProbes = 6;
/// A probe's write backlog grows when its last third of writes waits
/// this much longer than its first third (about one write's solve).
constexpr double kBacklogGrowthMs = 250.0;
/// A run whose generator sent this late (tail) is invalid.
constexpr double kMaxLateMs = 10.0;
constexpr int kSetupReps = 7;
/// Probe runs after each daemon's set-up; their median normalizes it.
constexpr int kSetupProbes = 5;
constexpr int kResolveSample = 3;
constexpr double kCollectTimeoutS = 30.0;

// --- the daemon process ---------------------------------------------------

pl::util::CancelToken g_daemon_cancel;

extern "C" void on_daemon_term(int) { g_daemon_cancel.cancel(); }

/// One forked powerlimd with its own state directory. The destructor
/// drains it with SIGTERM (SIGKILL after a grace period), kills what is
/// left of its process group, reaps everything, and removes the
/// directory - on every exit path of the benchmark.
class Daemon {
 public:
  explicit Daemon(const std::string& dir) : dir_(dir) {
    fs::create_directories(dir_);
    std::cout.flush();
    std::cerr.flush();
    const pid_t pid = ::fork();
    if (pid < 0) throw std::runtime_error("fork failed");
    if (pid == 0) run_child();
    pid_ = pid;
    ::setpgid(pid_, pid_);
    const std::string port_file = dir_ + "/port";
    const Clock::time_point t = Clock::now();
    while (ms_since(t) < 10000.0) {
      std::ifstream pf(port_file);
      int port = 0;
      if (pf >> port && port > 0) {
        endpoint_.port = port;
        return;
      }
      int status = 0;
      if (::waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        stop();
        throw std::runtime_error("powerlimd exited during start-up");
      }
      ::usleep(500);
    }
    // A throwing constructor runs no destructor: stop the child here.
    stop();
    throw std::runtime_error("powerlimd wrote no port file in 10 s");
  }
  ~Daemon() { stop(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  const pl::util::Endpoint& endpoint() const { return endpoint_; }
  pid_t pid() const { return pid_; }
  std::string state_dir() const { return dir_ + "/state"; }

  void stop() {
    if (pid_ > 0) {
      ::kill(pid_, SIGTERM);
      int status = 0;
      const Clock::time_point t = Clock::now();
      while (::waitpid(pid_, &status, WNOHANG) == 0) {
        if (ms_since(t) > 10000.0) {
          ::kill(-pid_, SIGKILL);
          ::waitpid(pid_, &status, 0);
          break;
        }
        ::usleep(1000);
      }
      // Executors the daemon left behind were re-parented to this
      // process (a child subreaper); end and reap them too.
      ::kill(-pid_, SIGKILL);
      while (::waitpid(-1, &status, 0) > 0 || errno == EINTR) {
      }
      pid_ = -1;
    }
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

 private:
  [[noreturn]] void run_child() {
    ::setpgid(0, 0);
    // A benchmark killed from outside takes its daemon with it.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    const int log = ::open((dir_ + "/daemon.log").c_str(),
                           O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
    if (log >= 0) {
      ::dup2(log, STDOUT_FILENO);
      ::dup2(log, STDERR_FILENO);
    }
    struct sigaction sa = {};
    sa.sa_handler = on_daemon_term;
    sigemptyset(&sa.sa_mask);
    ::sigaction(SIGTERM, &sa, nullptr);
    ::sigaction(SIGINT, &sa, nullptr);
    pl::serve::ServeOptions so;
    so.port_file = dir_ + "/port";
    so.state_dir = dir_ + "/state";
    so.cancel = &g_daemon_cancel;
    int rc = 1;
    try {
      rc = pl::serve::serve(so, default_model(), default_cluster(), std::cout,
                            std::cerr);
    } catch (...) {
    }
    std::cout.flush();
    std::cerr.flush();
    ::_exit(rc);
  }

  std::string dir_;
  pid_t pid_ = -1;
  pl::util::Endpoint endpoint_;
};

// --- requests and their checks --------------------------------------------

bool verdicts_passed(const std::string& report_json) {
  return report_json.find("\"replay\":{\"checked\":true,\"ok\":true") !=
             std::string::npos &&
         report_json.find("\"certificate\":{\"checked\":true,\"ok\":true") !=
             std::string::npos;
}

std::string collect_failure(const pl::serve::CollectResult& got) {
  switch (got.status) {
    case CollectStatus::kDone:
      return "";
    case CollectStatus::kOverloaded:
      return "overloaded (" + got.overloaded.reason + ")";
    case CollectStatus::kRequestError:
      return "error: " + got.error_detail;
    case CollectStatus::kTimeout:
      return "timeout";
    case CollectStatus::kDisconnected:
      return "disconnected";
  }
  return "unknown";
}

/// Fresh socket caps in 41..79 W: never a primed cap and never
/// repeated, so every write solves.
class FreshCaps {
 public:
  explicit FreshCaps(std::uint64_t seed) : rng_(seed) {}
  /// A cap drawn uniformly from stratum k of n equal slices of the range,
  /// so every run's writes cover the range evenly.
  double next(std::size_t k = 0, std::size_t n = 1) {
    for (;;) {
      const double u = (static_cast<double>(k) + rng_.unit()) /
                       static_cast<double>(n);
      // Milliwatts; primed caps sit on whole tens of watts.
      const long mw = 41000 + static_cast<long>(u * 38000.0);
      if (mw % 10000 == 0 || !used_.insert(mw).second) continue;
      return static_cast<double>(mw) / 1000.0;
    }
  }

 private:
  SeededRng rng_;
  std::set<long> used_;
};

struct Planned {
  double due_s = 0.0;
  bool write = false;
  double socket_w = 0.0;
};

/// `n` requests at `rate`: seeded Poisson arrivals with seeded write
/// positions, or (`paced`) evenly spaced arrivals with writes evenly
/// among them. Write caps come from `fresh` either way.
std::vector<Planned> make_plan(std::uint64_t seed, double rate, std::size_t n,
                               FreshCaps& fresh, bool paced = false) {
  const std::size_t n_writes =
      static_cast<std::size_t>(static_cast<double>(n) * kWriteShare + 0.5);
  std::vector<double> due;
  std::vector<std::size_t> writes;
  if (paced) {
    for (std::size_t i = 0; i < n; ++i) due.push_back((i + 0.5) / rate);
    for (std::size_t k = 0; k < n_writes; ++k) {
      writes.push_back(k * n / n_writes + n / n_writes / 2);
    }
  } else {
    due = poisson_arrivals_s(seed, rate, n);
    writes = choose_indices(seed ^ 0x5bd1e995ULL, n, n_writes);
  }
  std::vector<Planned> plan(n);
  for (std::size_t i = 0; i < n; ++i) plan[i].due_s = due[i];
  // Strata go to write slots in a seeded order, so cap difficulty does
  // not follow time within the phase.
  std::vector<std::size_t> order(writes.size());
  for (std::size_t k = 0; k < order.size(); ++k) order[k] = k;
  SeededRng shuffle(seed + 2);
  for (std::size_t k = order.size(); k > 1; --k) {
    std::swap(order[k - 1], order[shuffle.below(k)]);
  }
  for (std::size_t k = 0; k < writes.size(); ++k) {
    Planned& p = plan[writes[k]];
    p.write = true;
    p.socket_w = fresh.next(order[k], writes.size());
  }
  return plan;
}

struct Outcome {
  bool write = false;
  bool failed = false;
  /// The reply arrived but its rows were wrong (a correctness failure,
  /// as opposed to a shed, error or timeout).
  bool wrong = false;
  std::string why;
  /// Queued behind busy connections at its due time.
  bool queued = false;
  /// Generator lateness: send time minus due time (0 when queued).
  double late_ms = 0.0;
  /// From due time to the terminal frame.
  double latency_ms = 0.0;
  double server_ms = 0.0;
  double queue_wait_ms = 0.0;
  Clock::time_point due;
  Clock::time_point send;
  Clock::time_point end;
  double socket_w = 0.0;
  double bound_s = 0.0;
  /// The host probe after a write's reply (writes only).
  double probe_ms = 0.0;
};

struct ServeContext {
  pl::util::Endpoint endpoint;
  std::string trace_text;
  int ranks = 0;
  std::vector<double> primed_job_caps;
  /// Primed rows by cap order; reads must return exactly these.
  std::vector<pl::robust::JournalEntry> primed;
  /// Timed after each daemon's set-up and after each write's reply on
  /// the write connection's thread (the only one that runs it during a
  /// phase), to host-normalize set-up and write latency.
  std::unique_ptr<HostProbe> probe;
};

void check_read(const ServeContext& ctx, const pl::serve::CollectResult& got,
                Outcome* o) {
  if (got.rows.size() != ctx.primed.size()) {
    o->why = "read returned " + std::to_string(got.rows.size()) + " rows";
    o->wrong = true;
    return;
  }
  for (const pl::serve::ServeRow& row : got.rows) {
    const pl::robust::JournalEntry& e = row.entry;
    const auto want = std::find_if(
        ctx.primed.begin(), ctx.primed.end(),
        [&](const auto& p) { return p.job_cap_watts == e.job_cap_watts; });
    if (want == ctx.primed.end() || want->verdict != e.verdict ||
        want->degraded != e.degraded ||
        want->bound_seconds != e.bound_seconds ||
        want->fallback != e.fallback) {
      o->why = "read row at " + json_num(e.job_cap_watts) +
               " W differs from the primed row";
      o->wrong = true;
      return;
    }
  }
}

void check_write(const ServeContext& ctx, const pl::serve::CollectResult& got,
                 Outcome* o) {
  const double job = o->socket_w * ctx.ranks;
  if (got.rows.size() != 1 || got.rows[0].entry.job_cap_watts != job) {
    o->why = "write returned no row for its cap";
    o->wrong = true;
    return;
  }
  const pl::robust::JournalEntry& e = got.rows[0].entry;
  if (e.verdict != pl::robust::StatusCode::kOk ||
      !verdicts_passed(e.report_json)) {
    o->why = std::string("write verdict ") + pl::robust::to_string(e.verdict) +
             " without passed replay and certificate";
    o->wrong = true;
    return;
  }
  o->bound_s = e.bound_seconds;
}

/// One load-generator connection: the client and the frames it has
/// received but not yet decoded.
struct Conn {
  pl::serve::ServeClient client;
  pl::robust::FrameStream stream;
};

/// A request carries the whole trace (52 kB here), more than a fresh
/// socket's 16 kB send buffer, so the client turns Nagle off and sizes
/// its send buffer for a whole request.
bool connect_client(Conn& conn, const pl::util::Endpoint& endpoint) {
  conn.stream = pl::robust::FrameStream();
  if (!conn.client.connect(endpoint, 5.0).ok()) return false;
  const int on = 1;
  const int send_buffer = 1 << 20;
  return ::setsockopt(conn.client.fd(), IPPROTO_TCP, TCP_NODELAY, &on,
                      sizeof on) == 0 &&
         ::setsockopt(conn.client.fd(), SOL_SOCKET, SO_SNDBUF, &send_buffer,
                      sizeof send_buffer) == 0;
}

/// ServeClient::collect, except that the client acknowledges every
/// received segment at once (TCP_QUICKACK after each recv). The daemon
/// sends each reply frame with its own send() under Nagle's algorithm,
/// so it holds the rest of a reply until the first frame is
/// acknowledged. With ServeClient::collect the client's kernel delayed
/// that ACK in 5-47% of reads, varying from run to run with the same
/// schedule, and each such read stalled for the 40 ms delayed-ACK timer
/// after its first frame; the read p50 flipped between ~3 and ~10 ms.
/// The frames, decoders and terminal rules are ServeClient's.
pl::serve::CollectResult collect_acked(Conn& conn,
                                       const std::string& request_id) {
  pl::serve::CollectResult result;
  const Clock::time_point end =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(kCollectTimeoutS));
  const int fd = conn.client.fd();
  const int on = 1;
  for (;;) {
    pl::robust::WireFrame frame;
    const pl::robust::WireDecode d = conn.stream.next(&frame);
    if (d == pl::robust::WireDecode::kEmpty) {
      const double left_ms = ms_between(Clock::now(), end);
      if (left_ms <= 0.0) {
        result.status = CollectStatus::kTimeout;
        return result;
      }
      pollfd pfd{fd, POLLIN, 0};
      const int n = ::poll(&pfd, 1, static_cast<int>(left_ms) + 1);
      if (n < 0 && errno == EINTR) continue;
      if (n < 0) return result;
      if (n == 0) continue;
      std::string bytes;
      const pl::util::IoStatus st = pl::util::recv_some(fd, &bytes);
      if (st == pl::util::IoStatus::kDisconnected ||
          st == pl::util::IoStatus::kError) {
        return result;
      }
      (void)::setsockopt(fd, IPPROTO_TCP, TCP_QUICKACK, &on, sizeof on);
      conn.stream.feed(bytes);
      continue;
    }
    if (d != pl::robust::WireDecode::kOk) {
      result.error_detail = conn.stream.last_error();
      return result;
    }
    switch (frame.tag) {
      case pl::serve::kTagRow: {
        pl::serve::ServeRow row;
        if (pl::serve::decode_row(frame.payload, &row) &&
            row.id == request_id) {
          result.rows.push_back(std::move(row));
        }
        break;
      }
      case pl::serve::kTagDone:
        if (pl::serve::decode_done(frame.payload, &result.done) &&
            result.done.id == request_id) {
          result.status = CollectStatus::kDone;
          return result;
        }
        break;
      case pl::serve::kTagOverloaded:
        if (pl::serve::decode_overloaded(frame.payload, &result.overloaded) &&
            result.overloaded.id == request_id) {
          result.status = CollectStatus::kOverloaded;
          return result;
        }
        break;
      case pl::serve::kTagError: {
        std::string id;
        if (pl::serve::decode_error(frame.payload, &id,
                                    &result.error_detail) &&
            (id == request_id || id == "-")) {
          result.status = CollectStatus::kRequestError;
          return result;
        }
        break;
      }
      default:
        result.error_detail = "unexpected frame tag";
        return result;
    }
  }
}

/// Offers `plan` open loop: each request is due at its arrival time and
/// timed from then, whether or not a connection of its kind was free.
std::vector<Outcome> run_phase(const ServeContext& ctx,
                               const std::vector<Planned>& plan,
                               const std::string& tag) {
  std::vector<std::size_t> queue[2];  // reads, writes; each in due order
  for (std::size_t i = 0; i < plan.size(); ++i) {
    queue[plan[i].write ? 1 : 0].push_back(i);
  }
  std::atomic<std::size_t> next[2] = {0, 0};
  std::vector<std::unique_ptr<Conn>> conns;
  for (int k = 0; k < kConnections; ++k) {
    conns.push_back(std::make_unique<Conn>());
    if (!connect_client(*conns.back(), ctx.endpoint)) {
      throw std::runtime_error("cannot connect to powerlimd");
    }
  }
  std::vector<Outcome> out(plan.size());
  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(20);
  auto worker = [&](Conn& conn, int kind) {
    pl::serve::ServeClient& client = conn.client;
    for (;;) {
      const std::size_t k = next[kind].fetch_add(1);
      if (k >= queue[kind].size()) return;
      const std::size_t i = queue[kind][k];
      const Planned& p = plan[i];
      Outcome& o = out[i];
      o.write = p.write;
      o.socket_w = p.socket_w;
      o.due = t0 + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(p.due_s));
      o.queued = Clock::now() > o.due;
      if (!o.queued) std::this_thread::sleep_until(o.due);
      o.send = Clock::now();
      o.late_ms = o.queued ? 0.0 : ms_between(o.due, o.send);

      pl::serve::ServeRequest req;
      req.id = tag + "-" + std::to_string(i);
      req.kind = p.write ? "bound" : "sweep";
      req.caps = p.write ? std::vector<double>{p.socket_w * ctx.ranks}
                         : ctx.primed_job_caps;
      req.trace_text = ctx.trace_text;
      pl::serve::CollectResult got;
      if (!client.connected() && !connect_client(conn, ctx.endpoint)) {
        got.status = CollectStatus::kDisconnected;
      } else if (!client.submit(req).ok()) {
        got.status = CollectStatus::kDisconnected;
      } else {
        got = collect_acked(conn, req.id);
      }
      o.end = Clock::now();
      o.latency_ms = ms_between(o.due, o.end);
      o.why = collect_failure(got);
      if (o.why.empty()) {
        o.server_ms = got.done.total_ms;
        o.queue_wait_ms = got.done.queue_wait_ms;
        if (p.write) {
          check_write(ctx, got, &o);
        } else {
          check_read(ctx, got, &o);
        }
      } else if (got.status != CollectStatus::kOverloaded &&
                 got.status != CollectStatus::kRequestError) {
        client.close();
      }
      o.failed = !o.why.empty();
      if (p.write && ctx.probe) o.probe_ms = ctx.probe->run_ms();
    }
  };
  std::vector<std::thread> threads;
  for (int k = 0; k < kConnections; ++k) {
    threads.emplace_back(worker, std::ref(*conns[k]),
                         k < kConnections - kWriteConnections ? 0 : 1);
  }
  for (std::thread& t : threads) t.join();
  return out;
}

struct PhaseStats {
  std::vector<double> reads, writes, late, read_server, write_queue,
      write_probe;
  long failed = 0;
  long shed = 0;
};

PhaseStats summarize(const std::vector<Outcome>& outcomes) {
  PhaseStats s;
  for (const Outcome& o : outcomes) {
    (o.write ? s.writes : s.reads).push_back(o.latency_ms);
    if (o.write) s.write_probe.push_back(o.probe_ms);
    if (!o.queued) s.late.push_back(o.late_ms);
    if (o.failed) {
      ++s.failed;
      if (o.why.rfind("overloaded", 0) == 0) ++s.shed;
      continue;
    }
    if (o.write) {
      s.write_queue.push_back(o.queue_wait_ms);
    } else {
      s.read_server.push_back(o.server_ms);
    }
  }
  return s;
}

/// The tail by the rule when the sample allows one, else the maximum.
double tail_or_max(const std::vector<double>& xs) {
  const double p = tail_percentile(xs.size());
  if (p >= 0.0) return percentile(xs, p);
  return xs.empty() ? 0.0 : *std::max_element(xs.begin(), xs.end());
}

void report_mismatches(const std::vector<Outcome>& outcomes,
                       const std::string& phase) {
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    if (outcomes[i].failed) {
      std::cout << "MISMATCH " << phase << " request " << i << " ("
                << (outcomes[i].write ? "write" : "read")
                << "): " << outcomes[i].why << "\n";
    }
  }
}

/// Boots a daemon and proves the primed caps with one sweep request.
/// Returns the boot-to-port-file plus priming time in seconds.
double boot_and_prime(const std::string& dir, const std::vector<RefCap>& refs,
                      ServeContext* ctx, std::unique_ptr<Daemon>* daemon) {
  const Clock::time_point t = Clock::now();
  *daemon = std::make_unique<Daemon>(dir);
  ctx->endpoint = (*daemon)->endpoint();
  Conn conn;
  if (!connect_client(conn, ctx->endpoint)) {
    throw std::runtime_error("cannot connect to powerlimd");
  }
  pl::serve::ServeRequest req;
  req.id = "prime";
  req.kind = "sweep";
  req.caps = ctx->primed_job_caps;
  req.trace_text = ctx->trace_text;
  if (!conn.client.submit(req).ok()) {
    throw std::runtime_error("prime not sent");
  }
  const pl::serve::CollectResult got = collect_acked(conn, req.id);
  const double seconds = ms_since(t) / 1000.0;
  if (got.status != CollectStatus::kDone ||
      got.rows.size() != refs.size()) {
    throw std::runtime_error("priming failed: " + collect_failure(got));
  }
  ctx->primed.clear();
  for (std::size_t i = 0; i < refs.size(); ++i) {
    const double job = ctx->primed_job_caps[i];
    for (const pl::serve::ServeRow& row : got.rows) {
      if (row.entry.job_cap_watts != job) continue;
      // Reads compare against these rows, so they must be proven ones.
      if (refs[i].degraded ||
          row.entry.verdict != pl::robust::StatusCode::kOk ||
          !verdicts_passed(row.entry.report_json) ||
          !within_rel(row.entry.bound_seconds, refs[i].lp_bound_s,
                      kBoundRelTol)) {
        throw std::runtime_error("primed cap " + json_num(refs[i].socket_w) +
                                 " W does not match its reference");
      }
      ctx->primed.push_back(row.entry);
    }
  }
  if (ctx->primed.size() != refs.size()) {
    throw std::runtime_error("priming returned the wrong caps");
  }
  return seconds;
}

/// Re-solves a seeded sample of the writes offline and compares bounds.
long resolve_sample(const dag::TaskGraph& graph,
                    const std::vector<Outcome>& outcomes, std::uint64_t seed,
                    long* attempted) {
  std::vector<const Outcome*> ok_writes;
  for (const Outcome& o : outcomes) {
    if (o.write && !o.failed) ok_writes.push_back(&o);
  }
  long failed = 0;
  const pl::robust::SolveDriver driver(graph, default_model(),
                                       default_cluster());
  for (std::size_t i :
       choose_indices(seed, ok_writes.size(), kResolveSample)) {
    const Outcome& o = *ok_writes[i];
    const pl::robust::SolveOutcome got =
        driver.solve(o.socket_w * graph.num_ranks());
    ++*attempted;
    if (!got.ok() ||
        !within_rel(got.report.bound_seconds, o.bound_s, kBoundRelTol)) {
      ++failed;
      std::cout << "MISMATCH offline re-solve of write at " << o.socket_w
                << " W: daemon " << json_num(o.bound_s) << " s, offline "
                << json_num(got.report.bound_seconds) << " s\n";
    }
  }
  return failed;
}

/// Bisection for the highest offered rate that keeps both tails under
/// their limits with no failures and no growing backlog.
double search_max_rps(const ServeContext& ctx, std::uint64_t seed,
                      FreshCaps& fresh, long* attempted, long* failed) {
  double lo = 0.0, hi = 0.0, rate = kFixedRate * 2.0;
  for (int probe = 0; probe < kMaxProbes; ++probe) {
    const std::size_t n = std::max<std::size_t>(
        kMinProbeRequests,
        static_cast<std::size_t>(rate * kProbeSeconds + 0.5));
    const std::vector<Planned> plan =
        make_plan(seed * 7919ULL + 101ULL * probe, rate, n, fresh, true);
    const std::vector<Outcome> outcomes =
        run_phase(ctx, plan, "probe" + std::to_string(probe));
    const PhaseStats s = summarize(outcomes);
    *attempted += static_cast<long>(outcomes.size());
    // Wrong rows count as failures; sheds and timeouts only fail the rate.
    for (const Outcome& o : outcomes) {
      if (o.wrong) ++*failed;
    }
    // A growing write backlog shows as writes waiting longer and longer
    // across the probe.
    const std::size_t third = s.writes.size() / 3;
    const std::vector<double> first(s.writes.begin(),
                                    s.writes.begin() + third);
    const std::vector<double> last(s.writes.end() - third, s.writes.end());
    const bool growing = median(last) > median(first) + kBacklogGrowthMs;
    const bool pass = s.failed == 0 && !growing &&
                      tail_or_max(s.reads) <= kReadLimitMs &&
                      tail_or_max(s.writes) <= kWriteLimitMs;
    std::cout << "max_rps probe " << rate << " req/s: "
              << (pass ? "pass" : "fail") << " (read tail "
              << tail_or_max(s.reads) << " ms, write tail "
              << tail_or_max(s.writes) << " ms, failed " << s.failed
              << (growing ? ", backlog growing" : "") << ")\n";
    if (pass) {
      lo = rate;
    } else {
      hi = rate;
    }
    if (lo > 0.0 && hi > 0.0 && (hi - lo) / lo <= 0.05) break;
    rate = hi == 0.0 ? lo * 2.0 : (lo == 0.0 ? hi / 2.0 : 0.5 * (lo + hi));
  }
  if (lo == 0.0) std::cout << "max_rps: no probed rate passed\n";
  return lo;
}

/// What the daemon does with a read before it admits it, and so before
/// ServeDone.total_ms starts: decode the request frame and parse its
/// trace (Daemon::handle_request). Timed in-process; median of `reps`.
double pre_admit_ms(const ServeContext& ctx, int reps) {
  pl::serve::ServeRequest req;
  req.id = "parse";
  req.kind = "sweep";
  req.caps = ctx.primed_job_caps;
  req.trace_text = ctx.trace_text;
  const std::string payload = pl::serve::encode_request(req);
  std::vector<double> ms;
  for (int r = 0; r < reps; ++r) {
    const Clock::time_point t = Clock::now();
    pl::serve::ServeRequest got;
    std::string why;
    if (!pl::serve::decode_request(payload, &got, &why)) {
      throw std::runtime_error("read request does not decode: " + why);
    }
    std::istringstream in(got.trace_text);
    (void)pl::dag::read_trace(in, "request:" + got.id);
    ms.push_back(ms_since(t));
  }
  return median(ms);
}

/// journal.*: open and append timed on a copy of the daemon's journal
/// (never on the live file, whose recovery could race the daemon).
void measure_journal(const std::string& state_dir,
                     const std::string& work_dir, LayerValues* values) {
  std::string live;
  for (const auto& e : fs::directory_iterator(state_dir)) {
    const std::string name = e.path().filename().string();
    if (name.rfind("sweep-", 0) == 0 && e.path().extension() == ".journal") {
      live = e.path().string();
    }
  }
  if (live.empty()) throw std::runtime_error("daemon journal not found");
  (*values)["journal.bytes"] = static_cast<double>(fs::file_size(live));
  const std::string copy = work_dir + "/journal-copy";
  fs::copy_file(live, copy, fs::copy_options::overwrite_existing);
  std::vector<double> open_ms, append_ms;
  pl::robust::JournalEntry entry;
  for (int r = 0; r < 5; ++r) {
    const Clock::time_point t = Clock::now();
    auto opened = pl::robust::SweepJournal::open(copy);
    open_ms.push_back(ms_since(t));
    if (!opened.ok()) throw std::runtime_error("cannot open journal copy");
    pl::robust::SweepJournal& journal = opened.value();
    if (!journal.entries().empty()) entry = journal.entries().front();
    // A cap no request uses: below every fresh and primed cap.
    entry.job_cap_watts = 1.0 + r;
    const Clock::time_point a = Clock::now();
    if (!journal.append(entry).ok()) {
      throw std::runtime_error("cannot append to journal copy");
    }
    append_ms.push_back(ms_since(a));
  }
  (*values)["journal.open_ms"] = median(open_ms);
  (*values)["journal.append_ms"] = median(append_ms);
}

/// Client spans of a traced phase: "request" per request, with children
/// "conn_wait" (due to send, when queued), "daemon" (the reply's
/// ServeDone.total_ms, ending at the terminal frame) and, for reads,
/// "daemon.parse" (`parse_ms`, the pre-admission work, just before
/// "daemon"). The request span's self time is the wire.
std::vector<double> trace_phase(const std::vector<Outcome>& outcomes,
                                double parse_ms, Tracer& tracer,
                                int phase_span) {
  std::vector<double> read_wire;
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    const Outcome& o = outcomes[i];
    Span req;
    req.name = o.write ? "request.write" : "request.read";
    req.start_ms = tracer.at(o.due);
    req.end_ms = tracer.at(o.end);
    req.parent = phase_span;
    req.id = static_cast<long>(i);
    req.server_ms = o.server_ms;
    req.queue_wait_ms = o.queue_wait_ms;
    const int r = tracer.add(req);
    std::vector<Span> kids;
    Span wait{"conn_wait", req.start_ms, tracer.at(o.send), r,
              static_cast<long>(i)};
    if (wait.end_ms > wait.start_ms) {
      tracer.add(wait);
      kids.push_back(wait);
    }
    if (!o.failed) {
      Span d{"daemon", req.end_ms - o.server_ms, req.end_ms, r,
             static_cast<long>(i)};
      tracer.add(d);
      kids.push_back(d);
      if (!o.write) {
        Span p{"daemon.parse", d.start_ms - parse_ms, d.start_ms, r,
               static_cast<long>(i)};
        tracer.add(p);
        kids.push_back(p);
        read_wire.push_back(self_time_ms(req, kids));
      }
    }
  }
  return read_wire;
}

}  // namespace

int run_serve(const RunOptions& opt) {
  // Orphaned executors re-parent here, so the run can reap them.
  ::prctl(PR_SET_CHILD_SUBREAPER, 1);
  fs::create_directories(opt.work_dir);

  const dag::TaskGraph graph = make_trace(serve_trace_spec(), opt.trace_seed);
  ServeContext ctx;
  {
    std::ostringstream os;
    pl::dag::write_trace(os, graph);
    ctx.trace_text = os.str();
  }
  ctx.ranks = graph.num_ranks();
  const std::vector<double> primed = serve_primed_caps();
  for (double w : primed) ctx.primed_job_caps.push_back(w * ctx.ranks);
  const std::vector<RefCap> refs =
      load_references(opt.reference_path, kServeWorkload, opt.trace_seed,
                      primed);

  FreshCaps fresh(opt.seed * 2654435761ULL + 7);
  const std::size_t fixed_n = std::max(
      kFixedRequests, static_cast<std::size_t>(kFixedRate * opt.seconds));
  long attempted = 0, failed = 0;

  if (!opt.trace) {
    // Priming is a solve in a forked executor, which the host slows as it
    // slows the sweeps; each daemon's set-up is host-normalized by the
    // probe timed right after it (README, "Host normalization"). The
    // daemons fork with the probe resident, so its bytes are taken off
    // their peak RSS.
    ctx.probe = std::make_unique<HostProbe>();
    std::vector<double> setup_raw, setup_s;
    std::unique_ptr<Daemon> daemon;
    for (int r = 0; r < kSetupReps; ++r) {
      daemon.reset();
      setup_raw.push_back(boot_and_prime(
          opt.work_dir + "/daemon" + std::to_string(r), refs, &ctx, &daemon));
      std::vector<double> probe_ms;
      for (int p = 0; p < kSetupProbes; ++p) {
        probe_ms.push_back(ctx.probe->run_ms());
      }
      setup_s.push_back(setup_raw.back() * host_factor(median(probe_ms)));
    }
    const std::vector<Outcome> fixed =
        run_phase(ctx, make_plan(opt.trace_seed, kFixedRate, fixed_n, fresh), "f");
    const double rss_mb =
        (peak_rss_kb(daemon->pid()) * 1024.0 - ctx.probe->resident_bytes()) /
        (1024.0 * 1024.0);
    const PhaseStats s = summarize(fixed);
    attempted += static_cast<long>(fixed.size());
    failed += s.failed;
    report_mismatches(fixed, "fixed-rate");
    daemon.reset();
    failed += resolve_sample(graph, fixed, opt.seed, &attempted);

    const Tail read_tail = tail_at(s.reads, tail_percentile(s.reads.size()));
    const Tail write_tail =
        tail_at(s.writes, tail_percentile(s.writes.size()));
    const Tail late = tail_at(s.late, tail_percentile(s.late.size()));
    const bool valid = late.value <= kMaxLateMs;
    // A write is a solve in a forked executor, and the host slows it as
    // it slows the sweeps (README, "Host normalization").
    const double write_p50 =
        median(s.writes) * host_factor(median(s.write_probe));
    std::cout << "setup_s per daemon, host-normalized:";
    for (double v : setup_s) std::cout << " " << v;
    std::cout << "\nsetup_s per daemon, as measured:";
    for (double v : setup_raw) std::cout << " " << v;
    std::cout << "\nfixed rate = " << kFixedRate << " req/s, "
              << fixed.size() << " requests, " << s.writes.size()
              << " writes\n"
              << "read_ms.p50 = " << median(s.reads) << " ms (p75 "
              << percentile(s.reads, 75) << ", p90 " << percentile(s.reads, 90)
              << ", p95 " << percentile(s.reads, 95) << ", p98 "
              << percentile(s.reads, 98) << ", p99 " << percentile(s.reads, 99)
              << "; over 40 ms: "
              << std::count_if(s.reads.begin(), s.reads.end(),
                               [](double ms) { return ms > 40.0; })
              << ")\n"
              << "read_ms.tail = " << read_tail.value << " ms, "
              << describe(read_tail) << "\n"
              << "write_ms.p50 = " << write_p50
              << " ms, host-normalized (as measured: " << median(s.writes)
              << " ms; host probe median " << median(s.write_probe)
              << " ms, reference " << kProbeRefMs << " ms)\n"
              << "write_ms.tail = " << write_tail.value << " ms, "
              << describe(write_tail) << "\n"
              << "failed_frac = " << static_cast<double>(failed) / attempted
              << " ratio (" << failed << " of " << attempted << ")\n"
              << "bench.late_ms = " << late.value << " ms, " << describe(late)
              << "\n";
    if (!valid) {
      std::cout << "INVALID: the generator sent requests up to "
                << late.value << " ms late (limit " << kMaxLateMs
                << " ms)\n";
    }
    print_result(failed == 0 && valid, attempted, failed,
                 {{"setup_s", median(setup_s), "s"},
                  {"lat_ms.p50", median(s.reads), "ms"},
                  {"lat_ms.tail", read_tail.value, "ms"},
                  {"heavy_ms.p50", write_p50, "ms"},
                  {"peak_rss_mb", rss_mb, "MiB"}});
    return failed == 0 && valid ? 0 : kExitIncorrect;
  }

  // Traced run: the layers each write pays in its executor, timed
  // in-process on the served trace at a few fresh caps, then one
  // fixed-rate phase against the daemon. Its spans are built afterwards
  // from the timestamps every phase records, so tracing adds nothing to
  // the request loop and has no overhead to report. The max_rps search
  // follows: a bisection outcome in 5% steps spreads as widely from run
  // to run as the host does (0.15-0.27 of its median over ten runs), so
  // it is reported here rather than gated with the end-to-end metrics.
  Tracer tracer;
  LayerValues values;
  const std::string trace_path = opt.work_dir + "/trace.txt";
  pl::dag::save_trace(trace_path, graph);
  measure_setup_layers(trace_path, 3, tracer, &values);
  std::vector<double> sample;
  FreshCaps layer_caps(opt.seed + 1);
  for (int i = 0; i < 4; ++i) sample.push_back(layer_caps.next());
  RungTotals totals;
  traced_rung_pass(graph, sample, tracer, &totals);
  rung_layer_values(totals, &values);
  measure_lp_layers(graph, sample, &values);

  std::unique_ptr<Daemon> daemon;
  boot_and_prime(opt.work_dir + "/daemon", refs, &ctx, &daemon);
  ctx.probe = std::make_unique<HostProbe>();
  const double parse_ms = pre_admit_ms(ctx, 20);
  const int phase = tracer.begin("phase", -1, 0);
  const std::vector<Outcome> traced = run_phase(
      ctx, make_plan(opt.trace_seed, kFixedRate, fixed_n, fresh), "t");
  tracer.end(phase);
  const std::vector<double> wire =
      trace_phase(traced, parse_ms, tracer, phase);
  const PhaseStats st = summarize(traced);
  attempted += static_cast<long>(traced.size());
  failed += st.failed;
  report_mismatches(traced, "traced");
  measure_journal(daemon->state_dir(), opt.work_dir, &values);
  values["serve.max_rps"] =
      search_max_rps(ctx, opt.seed, fresh, &attempted, &failed);
  daemon.reset();

  const double read_p50 = median(st.reads);
  values["serve.server_ms"] = median(st.read_server);
  values["serve.parse_ms"] = parse_ms;
  values["serve.queue_wait_ms"] = median(st.write_queue);
  values["serve.wire_ms"] = median(wire);
  values["serve.shed"] = static_cast<double>(st.shed);
  values["bench.wire_share"] = read_p50 > 0.0 ? median(wire) / read_p50 : 0.0;
  values["bench.late_ms"] = tail_or_max(st.late);
  values["failed_frac"] =
      attempted > 0 ? static_cast<double>(failed) / attempted : 0.0;
  tracer.write_json(opt.spans_path);

  const double parts[] = {values["serve.wire_ms"], parse_ms,
                          values["serve.server_ms"]};
  std::cout << "read_ms.p50 (traced) = " << read_p50 << " ms: wire "
            << parts[0] << " ms, daemon parse " << parts[1]
            << " ms, daemon " << parts[2] << " ms; the wire is "
            << (parts[0] >= parts[1] && parts[0] >= parts[2] ? "" : "not ")
            << "the largest part\n"
            << "max_rps = " << values["serve.max_rps"]
            << " req/s (limits: read tail " << kReadLimitMs
            << " ms, write tail " << kWriteLimitMs << " ms)\n"
            << "bench.trace_overhead: not applicable (spans are built after "
               "the phase)\n"
            << "spans written to " << opt.spans_path << " ("
            << tracer.spans().size() << " spans)\n";
  print_result(failed == 0, attempted, failed, layer_metrics(values));
  return failed == 0 ? 0 : kExitIncorrect;
}

}  // namespace perfbench
