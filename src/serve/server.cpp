#include "serve/server.h"

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <deque>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <ostream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/schedule_io.h"
#include "dag/trace_io.h"
#include "robust/fault_injection.h"
#include "robust/journal.h"
#include "robust/pipeline.h"
#include "robust/solve_driver.h"
#include "robust/wire.h"
#include "robust/worker_pool.h"
#include "serve/protocol.h"
#include "serve/repl.h"
#include "util/posix_io.h"
#include "util/socket_io.h"

namespace powerlim::serve {
namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t).count();
}

double sec_since(Clock::time_point t) { return ms_since(t) / 1000.0; }

/// Extra wall grace past a request's deadline before its executor is
/// SIGKILLed (the executor observes the deadline cooperatively and
/// normally exits on its own well within this), ms.
constexpr double kDeadlineGraceMs = 2000.0;

/// crc32 of the trace text, hex: the per-trace key under --state-dir.
/// Requests for the same graph share one journal (and its proven caps)
/// no matter which client sends them.
std::string trace_hash(const std::string& text) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%08x",
                robust::crc32(text.data(), text.size()));
  return buf;
}

/// How a request's trace compares with the snapshot kept under its hash.
enum class Snapshot { kAbsent, kSame, kOther };

/// CRC-32 names a trace's snapshot and journal but proves nothing: four
/// chosen bytes give any trace any hash. So a request is served from, or
/// journaled into, a hash only when its trace is that hash's snapshot.
Snapshot compare_snapshot(const std::string& path, const std::string& text) {
  std::ifstream f(path, std::ios::binary);
  if (!f) return Snapshot::kAbsent;
  const std::string have{std::istreambuf_iterator<char>(f),
                         std::istreambuf_iterator<char>()};
  return have == text ? Snapshot::kSame : Snapshot::kOther;
}

std::string collision_error(const std::string& hash) {
  return "trace hash " + hash +
         " belongs to a different trace; refusing to serve or journal it";
}

/// In a forked child: SIGTERM trips the returned token, so a child
/// stops at the next pivot instead of dying mid-write. Attaching a token
/// also keeps child reports byte-identical to offline `sweep` runs,
/// which always attach one (`ladder.cancellable`).
util::CancelToken& cancel_on_sigterm() {
  static util::CancelToken token;
  struct sigaction sa = {};
  sa.sa_handler = [](int) { token.cancel(); };
  sigemptyset(&sa.sa_mask);
  sigaction(SIGTERM, &sa, nullptr);
  return token;
}

/// One client connection. Reads decode through a FrameStream (poisoned
/// stream = hostile/corrupt peer = drop); writes accumulate in `outbuf`
/// and flush nonblocking, so one stalled reader never blocks the loop.
struct Conn {
  int fd = -1;
  std::uint64_t id = 0;
  robust::FrameStream stream;
  std::string outbuf;
  bool handshaken = false;
  /// A standby's replication connection (first frame was 'H'): exempt
  /// from idle reaping, speaks only repl frames from here on.
  bool repl = false;
  /// Flush what is buffered, then close (post-skew-ack, drain).
  bool closing = false;
  Clock::time_point opened = Clock::now();
  Clock::time_point last_read = Clock::now();
  Clock::time_point last_progress = Clock::now();
};

/// One admitted request, through its whole life: queued -> executing
/// (forked executor streaming 'R' frames up a pipe, or a solve child
/// shipping its one result) -> finished.
struct Request {
  std::uint64_t conn_id = 0;  ///< 0 = internal (startup resume).
  std::string id;
  std::string kind;
  bool has_deadline = false;
  Clock::time_point deadline{};
  std::vector<double> caps;
  /// Caps owed a fresh solve (requested minus standing journal records).
  std::vector<double> pending;
  /// Pending caps already settled (journaled + replied) this run.
  std::vector<double> settled;
  /// The trace, parsed once on admission (or from its snapshot on
  /// resume); forked executors and solve children inherit it.
  std::shared_ptr<const dag::TaskGraph> graph;
  std::string hash;
  std::unique_ptr<robust::SweepJournal> journal;
  int resumed = 0;
  int rows = 0;
  Clock::time_point admitted = Clock::now();
  Clock::time_point exec_start{};
  // Executor state.
  pid_t pid = -1;
  int pipe_fd = -1;
  robust::FrameStream pipe_stream;
  int spawns = 0;
  bool deadline_killed = false;
  bool pipe_poisoned = false;
  // Solve state (kind "solve"): the attempts the cap already lost, the
  // cap deadline the child solves under, the net fault its reply
  // carries, the child's raw pipe bytes (classified when it exits), and
  // when the last heartbeat went out.
  int attempt = 0;
  double cap_deadline_ms = 0.0;
  robust::NetFault net_fault = robust::NetFault::kNone;
  std::string child_bytes;
  Clock::time_point last_beat = Clock::now();

  bool solve() const { return kind == "solve"; }
  double beat_interval_ms() const {
    return kSolveHeartbeatMs + (net_fault == robust::NetFault::kSlow
                                    ? robust::kNetSlowDelayMs
                                    : 0.0);
  }
};

class Daemon {
 public:
  Daemon(const ServeOptions& options, const machine::PowerModel& model,
         const machine::ClusterSpec& cluster, std::ostream& out,
         std::ostream& err)
      : opt_(options), model_(model), cluster_(cluster), out_(out),
        err_(err) {}

  int run();

 private:
  // --- startup ---
  bool setup_state_dir();
  bool setup_listen();
  bool setup_epoch();
  void startup_resume();

  // --- poll loop stages ---
  void poll_once();
  void accept_clients();
  void read_conn(Conn& conn);
  void handle_frame(Conn& conn, const robust::WireFrame& frame);
  void handle_request(Conn& conn, const robust::WireFrame& frame);
  void flush_conn(Conn& conn);
  void reap_conns();
  void pump_pipe(Request& req);
  void handle_pipe_frame(Request& req, const robust::WireFrame& frame);
  void reap_executors();
  void check_deadlines();
  void beat_solves();
  void schedule();
  void begin_drain(const char* why);

  // --- request plumbing ---
  void admit(std::uint64_t conn_id, ServeRequest&& sr,
             std::shared_ptr<const dag::TaskGraph> graph);
  void admit_solve(std::uint64_t conn_id, ServeRequest&& sr,
                   std::shared_ptr<const dag::TaskGraph> graph);
  std::vector<int> child_close_fds() const;
  void spawn_executor(Request& req);
  int run_executor(const Request& req, int write_fd);
  void spawn_solve(Request& req);
  robust::WorkerTaskOutput run_solve(const Request& req, int attempt) const;
  void absorb_pipe(Request& req, const char* bytes, std::size_t n);
  void answer_solve(Request& req, int wait_status);
  void executor_died(Request& req, int wait_status);
  void degrade_unsettled(Request& req, robust::StatusCode outcome,
                         const std::string& death);
  void finish(Request& req, const std::string& status,
              const std::string& detail);
  std::vector<double> unsettled(const Request& req) const;

  // --- replies ---
  void send_frame(std::uint64_t conn_id, char tag, const std::string& payload);
  void send_bytes(std::uint64_t conn_id, const std::string& bytes);
  void send_overloaded(std::uint64_t conn_id, const std::string& id,
                       const std::string& reason, const std::string& detail);
  void reply_row(Request& req, const robust::JournalEntry& entry);
  void drop_conn(std::uint64_t conn_id, const char* why);

  // --- high availability ---
  /// Per-connected-standby streaming state on the primary.
  struct StandbyPeer {
    /// The standby's last-reported epoch.
    std::uint64_t epoch = 0;
    /// Bytes streamed ('J' frames emitted) per journal hash.
    std::map<std::string, std::uint64_t> sent;
    /// Bytes the standby has acked durable per journal hash.
    std::map<std::string, std::uint64_t> acked;
    /// Trace snapshots already shipped this connection.
    std::set<std::string> traces_sent;
  };

  const char* role_name() const { return standby_ ? "standby" : "primary"; }
  /// Stamps epoch_ into a freshly-opened journal, pins the handle, and
  /// attaches the replication wake-up listener. False when the journal
  /// already carries a higher epoch - the caller must fence.
  bool stamp_journal(robust::SweepJournal& journal, const std::string& hash);
  void handle_repl_hello(Conn& conn, const robust::WireFrame& frame);
  void handle_repl_ack(Conn& conn, const robust::WireFrame& frame);
  void handle_promote(Conn& conn);
  void handle_standby_request(std::uint64_t conn_id, ServeRequest&& sr);
  /// Standby -> primary transition (operator command or heartbeat loss).
  void promote_self(const char* why);
  /// A higher epoch was observed: refuse all further writes and drain.
  void fence_self(const std::string& why);
  /// Streams journal deltas (and first-time trace snapshots) to every
  /// connected standby; `hashes` limits the pass (empty = all).
  void repl_stream(const std::vector<std::string>& hashes);
  void stream_journal_to(std::uint64_t conn_id, const std::string& hash);
  void send_resync(std::uint64_t conn_id, const std::string& hash,
                   const std::string& why);
  /// Per-iteration HA work: standby link upkeep / primary heartbeats.
  void repl_tick();

  const ServeOptions& opt_;
  const machine::PowerModel& model_;
  const machine::ClusterSpec& cluster_;
  std::ostream& out_;
  std::ostream& err_;

  int listen_fd_ = -1;
  std::uint64_t next_conn_id_ = 1;
  std::map<std::uint64_t, Conn> conns_;
  std::deque<Request> queued_;
  std::vector<Request> active_;
  long shed_total_ = 0;
  long finished_ = 0;
  long degraded_caps_ = 0;
  bool draining_ = false;

  // High-availability state.
  bool standby_ = false;
  bool fenced_ = false;
  std::uint64_t epoch_ = 1;
  std::unique_ptr<StandbyLink> standby_link_;
  std::map<std::uint64_t, StandbyPeer> standbys_;  // keyed by conn id
  /// Journal hashes with unstreamed appends (poked by the journal
  /// append listener; drained by repl_stream).
  std::set<std::string> repl_dirty_;
  Clock::time_point last_heartbeat_ = Clock::now();
};

// ---------------------------------------------------------------------------
// Startup.

bool Daemon::setup_state_dir() {
  if (opt_.state_dir.empty()) {
    err_ << "powerlimd: --state-dir must not be empty\n";
    return false;
  }
  if (::mkdir(opt_.state_dir.c_str(), 0755) != 0 && errno != EEXIST) {
    err_ << "powerlimd: cannot create state dir '" << opt_.state_dir
         << "': " << std::strerror(errno) << "\n";
    return false;
  }
  return true;
}

bool Daemon::setup_listen() {
  util::Endpoint ep;
  if (!util::parse_endpoint(opt_.listen, &ep)) {
    err_ << "powerlimd: bad --listen address '" << opt_.listen << "'\n";
    return false;
  }
  // A daemon restarting over a dying predecessor races the kernel
  // releasing the port; EADDRINUSE is typed precisely so this bounded
  // retry exists instead of a fatal error.
  std::string error;
  for (int attempt = 0; attempt < 50; ++attempt) {
    const util::ListenStatus st =
        util::listen_tcp_status(ep.host, ep.port, &listen_fd_, &error);
    if (st == util::ListenStatus::kOk) break;
    if (st != util::ListenStatus::kAddrInUse || attempt == 49) {
      err_ << "powerlimd: listen failed (" << util::to_string(st)
           << "): " << error << "\n";
      return false;
    }
    ::usleep(100 * 1000);
  }
  const int port = util::bound_port(listen_fd_);
  out_ << "powerlimd: listening on " << ep.host << ":" << port << "\n";
  out_.flush();
  if (!opt_.port_file.empty()) {
    // Write-then-rename so a polling reader never sees a partial file.
    const std::string tmp = opt_.port_file + ".tmp";
    {
      std::ofstream pf(tmp, std::ios::trunc);
      pf << port << "\n";
      if (!pf) {
        err_ << "powerlimd: cannot write port file '" << opt_.port_file
             << "'\n";
        return false;
      }
    }
    if (std::rename(tmp.c_str(), opt_.port_file.c_str()) != 0) {
      err_ << "powerlimd: cannot move port file into place: "
           << std::strerror(errno) << "\n";
      return false;
    }
  }
  return true;
}

bool Daemon::setup_epoch() {
  // The epoch this daemon serves under is the highest epoch recorded
  // anywhere in the state dir: the epoch file and every journal's `E`
  // stamps (the two can disagree after a crash mid-promotion; taking
  // the max makes promotion monotonic either way). Floor of 1 so "never
  // failed over" and "no epoch yet" are distinguishable from stamps.
  epoch_ = std::max<std::uint64_t>(1, load_epoch_file(opt_.state_dir));
  for (const std::string& hash : journal_hashes(opt_.state_dir)) {
    auto opened =
        robust::SweepJournal::open(journal_path(opt_.state_dir, hash));
    if (!opened.ok()) continue;
    epoch_ = std::max(epoch_, opened.value().epoch());
  }
  std::string error;
  if (!store_epoch_file(opt_.state_dir, epoch_, &error)) {
    err_ << "powerlimd: cannot persist epoch: " << error << "\n";
    return false;
  }
  out_ << "powerlimd: " << role_name() << " at epoch " << epoch_ << "\n";
  out_.flush();
  return true;
}

bool Daemon::stamp_journal(robust::SweepJournal& journal,
                           const std::string& hash) {
  const robust::Status st = journal.advance_epoch(epoch_);
  if (!st.ok()) {
    err_ << "powerlimd: journal " << hash << " refuses epoch " << epoch_
         << ": " << st.to_string() << "\n";
    return false;
  }
  journal.pin_epoch(epoch_);
  journal.set_append_listener([this, hash] { repl_dirty_.insert(hash); });
  return true;
}

void Daemon::startup_resume() {
  for (const std::string& hash : journal_hashes(opt_.state_dir)) {
    const std::string journal = journal_path(opt_.state_dir, hash);
    const std::string snapshot = trace_path(opt_.state_dir, hash);
    auto opened = robust::SweepJournal::open(journal);
    if (!opened.ok()) {
      err_ << "powerlimd: resume: cannot open " << journal << ": "
           << opened.status().to_string() << "\n";
      continue;
    }
    auto handle =
        std::make_unique<robust::SweepJournal>(std::move(opened).value());
    if (!stamp_journal(*handle, hash)) {
      fence_self("resume: journal " + hash + " carries a newer epoch");
      return;
    }
    // The work owed is the union of every journaled intent's caps minus
    // the caps that already have standing records.
    std::vector<double> owed;
    for (const robust::JournalRequest& jr : handle->requests()) {
      for (double cap : jr.caps) {
        if (handle->contains(cap)) continue;
        if (std::find(owed.begin(), owed.end(), cap) == owed.end())
          owed.push_back(cap);
      }
    }
    if (owed.empty()) continue;

    std::ifstream tf(snapshot);
    if (!tf) {
      err_ << "powerlimd: resume: missing trace snapshot " << snapshot
           << "; " << owed.size() << " cap(s) cannot be resumed\n";
      continue;
    }
    Request req;
    req.conn_id = 0;
    req.id = "resume-" + hash;
    req.kind = "sweep";
    req.caps = owed;
    req.pending = owed;
    req.hash = hash;
    req.journal = std::move(handle);
    try {
      req.graph = std::make_shared<const dag::TaskGraph>(
          dag::read_trace(tf, snapshot));
    } catch (const std::exception& e) {
      err_ << "powerlimd: resume: corrupt trace snapshot " << snapshot
           << ": " << e.what() << "\n";
      continue;
    }
    out_ << "powerlimd: resume: " << owed.size() << " cap(s) owed for trace "
         << hash << "\n";
    // Resume work was promised before this process existed; it bypasses
    // the admission queue bound and carries no (long-expired) deadline.
    queued_.push_back(std::move(req));
  }
  out_.flush();
}

// ---------------------------------------------------------------------------
// Poll loop.

int Daemon::run() {
  util::ignore_sigpipe();
  if (!setup_state_dir()) return 1;
  if (!opt_.standby_of.empty()) {
    util::Endpoint primary;
    if (!util::parse_endpoint(opt_.standby_of, &primary)) {
      err_ << "powerlimd: bad --standby-of address '" << opt_.standby_of
           << "'\n";
      return 1;
    }
    standby_ = true;
    if (!setup_epoch() || !setup_listen()) return 1;
    StandbyLink::Options lo;
    lo.primary = primary;
    lo.state_dir = opt_.state_dir;
    lo.epoch = epoch_;
    lo.backoff_ms = std::max(50.0, opt_.repl_heartbeat_ms);
    standby_link_ = std::make_unique<StandbyLink>(lo, out_);
  } else {
    if (!setup_epoch() || !setup_listen()) return 1;
  }
  // A standby defers resume until promotion: the primary owns the
  // owed work while it lives.
  if (opt_.resume && !standby_) startup_resume();

  for (;;) {
    if (opt_.cancel != nullptr && opt_.cancel->cancelled() && !draining_)
      begin_drain("signal");
    if (opt_.reopen_flag != nullptr && *opt_.reopen_flag != 0) {
      *opt_.reopen_flag = 0;
      int reopened = 0;
      for (Request& req : active_) {
        if (!req.journal) continue;
        const std::string path = req.journal->path();
        req.journal.reset();
        auto r = robust::SweepJournal::open(path);
        if (r.ok()) {
          req.journal =
              std::make_unique<robust::SweepJournal>(std::move(r).value());
          // Re-stamp: the reopened handle must be fenced and must keep
          // poking the replication streamer, exactly like the original.
          // Replication itself is reopen-proof - the hub streams from
          // the journal *file* by offset, not from this handle.
          if (!stamp_journal(*req.journal, req.hash)) {
            fence_self("reopen: journal " + req.hash +
                       " carries a newer epoch");
          }
          ++reopened;
        } else {
          err_ << "powerlimd: reopen failed for " << path << ": "
               << r.status().to_string() << "\n";
        }
      }
      out_ << "powerlimd: reopened " << reopened << " journal(s)\n";
      out_.flush();
    }

    check_deadlines();
    beat_solves();
    schedule();
    repl_tick();
    poll_once();
    reap_executors();
    reap_conns();

    if (opt_.max_requests > 0 && finished_ >= opt_.max_requests &&
        !draining_) {
      begin_drain("max-requests");
    }
    if (draining_ && active_.empty() && queued_.empty()) {
      // flush_conn can drop (erase) a failed connection, so iterate a
      // snapshot of ids, not the live map.
      std::vector<std::uint64_t> ids;
      for (auto& [id, conn] : conns_) ids.push_back(id);
      bool flushed = true;
      for (std::uint64_t id : ids) {
        auto it = conns_.find(id);
        if (it == conns_.end()) continue;
        flush_conn(it->second);
        it = conns_.find(id);
        if (it != conns_.end() && !it->second.outbuf.empty()) flushed = false;
      }
      if (flushed) break;
    }
  }

  for (auto& [id, conn] : conns_) {
    if (conn.fd >= 0) ::close(conn.fd);
  }
  if (standby_link_) standby_link_->close_link();
  if (listen_fd_ >= 0) ::close(listen_fd_);
  out_ << "powerlimd: drained; served " << finished_ << " request(s), shed "
       << shed_total_ << ", degraded " << degraded_caps_ << " cap(s)\n";
  out_.flush();
  return fenced_ ? kExitFenced : 0;
}

void Daemon::begin_drain(const char* why) {
  draining_ = true;
  out_ << "powerlimd: draining (" << why << "): " << active_.size()
       << " active, " << queued_.size() << " queued\n";
  out_.flush();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  for (Request& req : queued_) {
    ++shed_total_;
    send_overloaded(req.conn_id, req.id, "draining",
                    "daemon is shutting down; resubmit elsewhere");
    req.journal.reset();
  }
  queued_.clear();
}

void Daemon::poll_once() {
  std::vector<pollfd> fds;
  std::vector<std::uint64_t> conn_ids;
  std::vector<std::size_t> active_idx;

  if (listen_fd_ >= 0)
    fds.push_back({listen_fd_, POLLIN, 0});
  const std::size_t first_conn = fds.size();
  for (auto& [id, conn] : conns_) {
    short events = POLLIN;
    if (!conn.outbuf.empty()) events |= POLLOUT;
    fds.push_back({conn.fd, events, 0});
    conn_ids.push_back(id);
  }
  const std::size_t first_pipe = fds.size();
  for (std::size_t i = 0; i < active_.size(); ++i) {
    if (active_[i].pipe_fd >= 0) {
      fds.push_back({active_[i].pipe_fd, POLLIN, 0});
      active_idx.push_back(i);
    }
  }
  // The standby's replication link rides the same poll: POLLOUT while
  // its nonblocking dial is in flight, POLLIN once streaming.
  std::size_t link_slot = fds.size();
  if (standby_link_ && standby_link_->fd() >= 0) {
    fds.push_back({standby_link_->fd(), standby_link_->poll_events(), 0});
  }

  // Wake in time for the next solve heartbeat.
  double timeout_ms = 100.0;
  const auto next_beat = [&](const Request& req) {
    if (!req.solve()) return;
    timeout_ms = std::min(timeout_ms,
                          req.beat_interval_ms() - ms_since(req.last_beat));
  };
  std::for_each(queued_.begin(), queued_.end(), next_beat);
  std::for_each(active_.begin(), active_.end(), next_beat);
  const int wait_ms = static_cast<int>(std::ceil(std::max(0.0, timeout_ms)));
  const int n = util::retry_eintr(
      [&] { return ::poll(fds.data(), fds.size(), wait_ms); });
  if (n <= 0) return;

  if (standby_link_ && link_slot < fds.size() &&
      (fds[link_slot].revents & (POLLIN | POLLOUT | POLLHUP | POLLERR)) !=
          0) {
    standby_link_->on_pollable();
  }

  if (listen_fd_ >= 0 && (fds[0].revents & POLLIN) != 0) accept_clients();

  for (std::size_t i = first_conn; i < first_pipe; ++i) {
    auto it = conns_.find(conn_ids[i - first_conn]);
    if (it == conns_.end()) continue;
    if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) != 0)
      read_conn(it->second);
    auto again = conns_.find(conn_ids[i - first_conn]);
    if (again != conns_.end() && (fds[i].revents & POLLOUT) != 0)
      flush_conn(again->second);
  }

  for (std::size_t i = first_pipe; i < link_slot; ++i) {
    if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
      const std::size_t idx = active_idx[i - first_pipe];
      if (idx < active_.size()) pump_pipe(active_[idx]);
    }
  }
}

void Daemon::accept_clients() {
  for (;;) {
    util::IoStatus st = util::IoStatus::kOk;
    const int fd = util::accept_timeout(listen_fd_, /*timeout_s=*/0.0, &st);
    if (fd < 0) return;  // kTimeout (incl. aborted handshakes) or kError
    Conn conn;
    conn.fd = fd;
    conn.id = next_conn_id_++;
    conns_.emplace(conn.id, std::move(conn));
  }
}

void Daemon::read_conn(Conn& conn) {
  std::string bytes;
  const util::IoStatus st = util::recv_some(conn.fd, &bytes);
  if (st == util::IoStatus::kDisconnected || st == util::IoStatus::kError) {
    drop_conn(conn.id, "peer closed");
    return;
  }
  if (bytes.empty()) return;
  conn.last_read = Clock::now();
  conn.stream.feed(bytes);
  // A backlog no single intact frame can explain is hostile (e.g. a
  // length prefix the decoder already refused to allocate).
  if (conn.stream.buffered() > robust::kMaxFrameBytes) {
    drop_conn(conn.id, "oversized frame backlog");
    return;
  }
  const std::uint64_t id = conn.id;
  for (;;) {
    auto it = conns_.find(id);
    if (it == conns_.end()) return;  // a frame handler dropped us
    robust::WireFrame frame;
    const robust::WireDecode d = it->second.stream.next(&frame);
    if (d == robust::WireDecode::kEmpty) return;
    if (d != robust::WireDecode::kOk) {
      drop_conn(id, it->second.stream.last_error().c_str());
      return;
    }
    handle_frame(it->second, frame);
  }
}

void Daemon::handle_frame(Conn& conn, const robust::WireFrame& frame) {
  if (frame.tag == kTagHello && !conn.repl) {
    std::string why;
    if (decode_hello(frame.payload, &why)) {
      conn.handshaken = true;
      HelloAck ack;
      ack.ok = true;
      ack.epoch = epoch_;
      ack.role = role_name();
      send_frame(conn.id, kTagHelloAck, encode_hello_ack(ack));
    } else {
      // Version skew gets a readable ack, then the connection ends: a
      // mismatched peer must never have a request half-parsed. Mark
      // closing *before* sending - a send failure drops (frees) conn.
      conn.closing = true;
      HelloAck ack;
      ack.error = why;
      send_frame(conn.id, kTagHelloAck, encode_hello_ack(ack));
    }
    return;
  }
  if (frame.tag == kTagReplHello && !conn.handshaken) {
    handle_repl_hello(conn, frame);
    return;
  }
  if (conn.repl) {
    if (frame.tag == kTagReplAck) {
      handle_repl_ack(conn, frame);
      return;
    }
    drop_conn(conn.id, "non-repl frame on repl connection");
    return;
  }
  if (!conn.handshaken) {
    drop_conn(conn.id, "request before handshake");
    return;
  }
  if (frame.tag == kTagRequest) {
    handle_request(conn, frame);
    return;
  }
  if (frame.tag == kTagPromote) {
    handle_promote(conn);
    return;
  }
  drop_conn(conn.id, "unknown frame tag");
}

void Daemon::handle_request(Conn& conn, const robust::WireFrame& frame) {
  // Everything below works with the id, not the reference: any reply
  // can drop (free) the connection when its socket fails mid-send.
  const std::uint64_t conn_id = conn.id;
  ServeRequest sr;
  std::string why;
  if (!decode_request(frame.payload, &sr, &why)) {
    send_frame(conn_id, kTagError, encode_error("-", why));
    return;
  }
  if (draining_) {
    ++shed_total_;
    send_overloaded(conn_id, sr.id, "draining", "daemon is shutting down");
    return;
  }
  // A solve touches no journal, so a standby runs one like a primary.
  if (standby_ && sr.kind != "solve") {
    handle_standby_request(conn_id, std::move(sr));
    return;
  }
  if (static_cast<int>(queued_.size()) >= opt_.max_queue) {
    // Shed *now*: an honest "overloaded" in microseconds beats an
    // accepted request the daemon cannot schedule before its deadline.
    ++shed_total_;
    std::ostringstream detail;
    detail << "queue at capacity (" << queued_.size() << "/" << opt_.max_queue
           << "), " << active_.size() << " active";
    send_overloaded(conn_id, sr.id, "queue-full", detail.str());
    return;
  }
  std::shared_ptr<const dag::TaskGraph> graph;
  try {
    std::istringstream in(sr.trace_text);
    graph = std::make_shared<const dag::TaskGraph>(
        dag::read_trace(in, "request:" + sr.id));
  } catch (const std::exception& e) {
    send_frame(conn_id, kTagError, encode_error(sr.id, e.what()));
    return;
  }
  if (sr.kind == "solve") {
    admit_solve(conn_id, std::move(sr), std::move(graph));
  } else {
    admit(conn_id, std::move(sr), std::move(graph));
  }
}

void Daemon::admit_solve(std::uint64_t conn_id, ServeRequest&& sr,
                         std::shared_ptr<const dag::TaskGraph> graph) {
  Request req;
  req.conn_id = conn_id;
  req.id = sr.id;
  req.kind = sr.kind;
  req.caps = sr.caps;
  req.graph = std::move(graph);
  req.attempt = sr.attempt;
  req.cap_deadline_ms = sr.deadline_ms;
  // Worker-side network faults (`serve --inject-fail net-*`) injure the
  // reply to the first net_fault_attempts attempts of a matching cap.
  const robust::FaultPlan* plan = robust::ScopedFaultPlan::active();
  if (plan != nullptr && plan->applies_to_cap(req.caps[0]) &&
      req.attempt < plan->net_fault_attempts) {
    req.net_fault = plan->net_fault;
  }
  // Dead-peer simulation: accept the request, then fall silent - no
  // heartbeat, no answer - until the scheduler gives up on it.
  if (req.net_fault == robust::NetFault::kStall) return;
  queued_.push_back(std::move(req));
}

void Daemon::admit(std::uint64_t conn_id, ServeRequest&& sr,
                   std::shared_ptr<const dag::TaskGraph> graph) {
  Request req;
  req.conn_id = conn_id;
  req.id = sr.id;
  req.kind = sr.kind;
  req.caps = sr.caps;
  req.graph = std::move(graph);
  req.hash = trace_hash(sr.trace_text);
  double deadline_ms = sr.deadline_ms > 0.0 ? sr.deadline_ms
                                            : opt_.default_deadline_ms;
  if (opt_.max_deadline_ms > 0.0 &&
      (deadline_ms <= 0.0 || deadline_ms > opt_.max_deadline_ms)) {
    deadline_ms = opt_.max_deadline_ms;
  }
  if (deadline_ms > 0.0) {
    req.has_deadline = true;
    req.deadline = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                      std::chrono::duration<double, std::milli>(
                                          deadline_ms));
  }

  // Snapshot the trace once per hash: the journal's resume path needs
  // the graph after a SIGKILL, and the snapshot is what makes a `Q`
  // intent self-contained. It is stored whole or not at all: a torn
  // snapshot would refuse its own trace as a collision.
  const std::string snapshot = trace_path(opt_.state_dir, req.hash);
  const Snapshot match = compare_snapshot(snapshot, sr.trace_text);
  if (match == Snapshot::kOther) {
    send_frame(conn_id, kTagError,
               encode_error(req.id, collision_error(req.hash)));
    return;
  }
  if (match == Snapshot::kAbsent &&
      !store_file(snapshot, sr.trace_text, nullptr)) {
    send_frame(conn_id, kTagError,
               encode_error(req.id, "cannot persist trace snapshot"));
    return;
  }

  auto opened =
      robust::SweepJournal::open(journal_path(opt_.state_dir, req.hash));
  if (!opened.ok()) {
    send_frame(conn_id, kTagError,
               encode_error(req.id, "cannot open journal: " +
                                        opened.status().to_string()));
    return;
  }
  req.journal =
      std::make_unique<robust::SweepJournal>(std::move(opened).value());
  if (!stamp_journal(*req.journal, req.hash)) {
    send_frame(conn_id, kTagError,
               encode_error(req.id, "daemon fenced by a newer epoch"));
    fence_self("admit: journal " + req.hash + " carries a newer epoch");
    return;
  }

  // Serve every cap with a standing record straight from the journal;
  // the journal's trust rule decides, not file presence.
  for (double cap : req.caps) {
    const robust::JournalEntry* entry = req.journal->find(cap);
    if (entry != nullptr) {
      ++req.resumed;
      reply_row(req, *entry);
    } else {
      req.pending.push_back(cap);
    }
  }

  if (req.pending.empty()) {
    finish(req, "ok", "all caps served from journal");
    return;
  }

  // Journal the intent *before* the first solve: from here on a SIGKILL
  // leaves a `Q` record whose unproven caps --resume will finish.
  robust::JournalRequest jr;
  jr.id = req.id;
  jr.kind = req.kind;
  jr.deadline_ms = sr.deadline_ms;
  jr.caps = req.caps;
  const robust::Status st = req.journal->append_request(jr);
  if (!st.ok()) {
    send_frame(conn_id, kTagError,
               encode_error(req.id,
                            "cannot journal request: " + st.to_string()));
    if (st.code() == robust::StatusCode::kStaleEpoch) {
      fence_self("admit: journal " + req.hash + " fenced the intent");
    }
    return;
  }
  queued_.push_back(std::move(req));
}

// ---------------------------------------------------------------------------
// Scheduling and executors.

void Daemon::check_deadlines() {
  // Shed queued requests whose deadline already passed - executing them
  // would burn an executor on a reply nobody can use.
  for (auto it = queued_.begin(); it != queued_.end();) {
    if (it->conn_id != 0 && it->has_deadline && Clock::now() > it->deadline) {
      ++shed_total_;
      send_overloaded(it->conn_id, it->id, "deadline",
                      "deadline passed while queued");
      it = queued_.erase(it);
    } else {
      ++it;
    }
  }
  // SIGKILL executors that overstayed the deadline grace (the executor
  // observes the deadline cooperatively; this is the backstop for a
  // wedged one).
  for (Request& req : active_) {
    if (req.pid > 0 && req.has_deadline && !req.deadline_killed &&
        ms_since(req.deadline) > kDeadlineGraceMs) {
      ::kill(req.pid, SIGKILL);
      req.deadline_killed = true;
    }
    // A solve's wall budget: its cap deadline plus the grace a local
    // pool worker gets.
    if (req.pid > 0 && req.solve() && req.cap_deadline_ms > 0.0 &&
        !req.deadline_killed &&
        ms_since(req.exec_start) >
            req.cap_deadline_ms + robust::kWallBudgetGraceMs) {
      ::kill(req.pid, SIGKILL);
      req.deadline_killed = true;
    }
  }
}

void Daemon::beat_solves() {
  const auto beat = [this](Request& req) {
    if (!req.solve() || ms_since(req.last_beat) < req.beat_interval_ms()) {
      return;
    }
    req.last_beat = Clock::now();
    send_frame(req.conn_id, kTagHeartbeat, encode_heartbeat(req.id));
  };
  for (Request& req : queued_) beat(req);
  for (Request& req : active_) beat(req);
}

void Daemon::schedule() {
  while (!queued_.empty() &&
         static_cast<int>(active_.size()) < opt_.max_active) {
    Request req = std::move(queued_.front());
    queued_.pop_front();
    // Nobody is left to read a solve whose client went away.
    if (req.solve() && conns_.count(req.conn_id) == 0) continue;
    req.exec_start = Clock::now();
    active_.push_back(std::move(req));
    if (active_.back().solve()) {
      spawn_solve(active_.back());
    } else {
      spawn_executor(active_.back());
    }
  }
}

std::vector<int> Daemon::child_close_fds() const {
  // A child holding a client socket open would hide that client's
  // disconnect; the other fds are simply not the child's.
  std::vector<int> fds;
  if (listen_fd_ >= 0) fds.push_back(listen_fd_);
  for (const auto& [id, conn] : conns_) {
    if (conn.fd >= 0) fds.push_back(conn.fd);
  }
  for (const Request& other : active_) {
    if (other.pipe_fd >= 0) fds.push_back(other.pipe_fd);
  }
  if (standby_link_ && standby_link_->fd() >= 0) {
    fds.push_back(standby_link_->fd());
  }
  return fds;
}

void Daemon::spawn_executor(Request& req) {
  int pfd[2];
  if (::pipe(pfd) != 0) {
    degrade_unsettled(req, robust::StatusCode::kWorkerCrashed,
                      "pipe() failed: " + std::string(strerror(errno)));
    return;
  }
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(pfd[0]);
    ::close(pfd[1]);
    degrade_unsettled(req, robust::StatusCode::kWorkerCrashed,
                      "fork() failed: " + std::string(strerror(errno)));
    return;
  }
  if (pid == 0) {
    // Executor child: drop every daemon fd except the result pipe.
    for (int fd : child_close_fds()) ::close(fd);
    ::close(pfd[0]);
    ::_exit(run_executor(req, pfd[1]));
  }
  ::close(pfd[1]);
  // Nonblocking read end: a dead executor whose worker children still
  // hold the inherited write end must never block the daemon's drain.
  const int flags = ::fcntl(pfd[0], F_GETFL, 0);
  if (flags >= 0) ::fcntl(pfd[0], F_SETFL, flags | O_NONBLOCK);
  req.pid = pid;
  req.pipe_fd = pfd[0];
  req.pipe_stream = robust::FrameStream();
  req.pipe_poisoned = false;
  ++req.spawns;
}

int Daemon::run_executor(const Request& req, int write_fd) {
  // The caps this spawn owes: pending minus what an earlier spawn of
  // the same request already settled.
  std::vector<double> caps;
  for (double cap : req.pending) {
    if (std::find(req.settled.begin(), req.settled.end(), cap) ==
        req.settled.end())
      caps.push_back(cap);
  }
  try {
    robust::ResilientSweepOptions ropt;
    ropt.driver.cap_deadline_ms = opt_.cap_deadline_ms;
    util::CancelToken& executor_cancel = cancel_on_sigterm();
    ropt.driver.cancel = &executor_cancel;
    ropt.workers = opt_.workers;
    ropt.worker_mem_mb = opt_.worker_mem_mb;
    ropt.worker_cpu_s = opt_.worker_cpu_s;
    ropt.remotes = opt_.remotes;
    ropt.remote_heartbeat_ms = opt_.remote_heartbeat_ms;
    if (req.has_deadline) {
      const double remain_s = std::max(
          0.0, -ms_since(req.deadline) / 1000.0);
      ropt.deadline = util::Deadline::after(remain_s, &executor_cancel);
    } else {
      ropt.deadline = util::Deadline::cancel_only(&executor_cancel);
    }
    // The daemon journals; the executor only streams. Shipping each row
    // the moment it settles is what lets the parent journal it (and
    // reply) while later caps still solve - a SIGKILL between rows
    // loses at most the cap in flight.
    ropt.on_row = [write_fd](const robust::SweepRow& row) {
      (void)robust::write_wire_frame(write_fd, 'R',
                                     robust::serialize_journal_entry(row));
    };

    const auto result =
        robust::resilient_sweep(*req.graph, model_, cluster_, caps, ropt);
    if (!result.ok()) return 1;
    if (result.value().interrupted) return 75;
    return 0;
  } catch (...) {
    return 1;
  }
}

void Daemon::spawn_solve(Request& req) {
  robust::WorkerTaskSpec job;
  job.job_cap_watts = req.caps[0];
  // Runs in the forked child, on its copy of `req`.
  job.run = [this, &req](int attempt) { return run_solve(req, attempt); };
  robust::WorkerLimits limits;
  limits.mem_mb = opt_.worker_mem_mb;
  limits.cpu_seconds = opt_.worker_cpu_s;
  robust::SpawnedWorker child;
  if (!robust::spawn_worker(job, req.attempt, limits,
                            static_cast<int>(req.conn_id % 1000),
                            child_close_fds(), &child)) {
    send_frame(req.conn_id, kTagError,
               encode_error(req.id, std::string("worker-crashed cannot spawn "
                                                "worker: ") +
                                        std::strerror(errno)));
    ++finished_;
    return;  // pid and pipe_fd stay -1: reaped on the next pass
  }
  // Nonblocking like an executor's pipe: reads stop at EAGAIN.
  const int flags = ::fcntl(child.read_fd, F_GETFL, 0);
  if (flags >= 0) ::fcntl(child.read_fd, F_SETFL, flags | O_NONBLOCK);
  req.pid = child.pid;
  req.pipe_fd = child.read_fd;
}

robust::WorkerTaskOutput Daemon::run_solve(const Request& req,
                                           int attempt) const {
  const double cap = req.caps[0];
  robust::maybe_execute_worker_fault(cap, attempt);
  robust::SolveDriverOptions opt;
  opt.cap_deadline_ms = req.cap_deadline_ms;
  opt.cancel = &cancel_on_sigterm();
  robust::FaultPlan lie_plan;
  std::optional<robust::ScopedFaultPlan> lie_scope;
  if (req.net_fault == robust::NetFault::kLie) {
    // The Byzantine worker: skip local verification and ship a bound
    // shrunk just past feasibility. Invisible to replay; only the
    // scheduler's exact certificate gate can catch it.
    opt.verify_certificate = false;
    lie_plan.corrupt_solution_epsilon = 0.05;
    lie_scope.emplace(lie_plan);
  }
  const robust::SolveOutcome out =
      robust::SolveDriver(*req.graph, model_, cluster_, opt).solve(cap);
  robust::JournalEntry entry =
      robust::isolated_worker_entry(out.report, attempt);
  if (out.report.verdict != robust::StatusCode::kOk) return entry;
  // The artifact is what the scheduler's certificate gate re-verifies.
  core::SavedSchedule saved;
  saved.schedule = out.lp.schedule;
  saved.frontiers = out.lp.frontiers;
  saved.vertex_time = out.lp.vertex_time;
  saved.job_cap_watts = cap;
  saved.makespan = out.lp.makespan;
  std::ostringstream schedule;
  core::write_schedule(schedule, saved);
  return {std::move(entry), schedule.str()};
}

void Daemon::absorb_pipe(Request& req, const char* bytes, std::size_t n) {
  // A solve child's bytes are classified whole when it exits; an
  // executor's frames are journaled and replied as they arrive.
  if (req.solve()) {
    req.child_bytes.append(bytes, n);
    return;
  }
  req.pipe_stream.feed(std::string(bytes, n));
  for (;;) {
    robust::WireFrame frame;
    const robust::WireDecode d = req.pipe_stream.next(&frame);
    if (d == robust::WireDecode::kEmpty) break;
    if (d != robust::WireDecode::kOk) {
      // A torn frame from our own executor means the executor is gone
      // or corrupt mid-write; treat it exactly like a crash.
      if (!req.pipe_poisoned && req.pid > 0) ::kill(req.pid, SIGKILL);
      req.pipe_poisoned = true;
      break;
    }
    handle_pipe_frame(req, frame);
  }
}

void Daemon::pump_pipe(Request& req) {
  char buf[65536];
  const ssize_t n = util::read_some(req.pipe_fd, buf, sizeof(buf));
  if (n <= 0) return;  // EOF and errors resolve via waitpid
  absorb_pipe(req, buf, static_cast<std::size_t>(n));
}

void Daemon::handle_pipe_frame(Request& req, const robust::WireFrame& frame) {
  robust::JournalEntry entry;
  if (frame.tag != 'R' ||
      !robust::parse_journal_entry(frame.payload, &entry)) {
    if (!req.pipe_poisoned && req.pid > 0) ::kill(req.pid, SIGKILL);
    req.pipe_poisoned = true;
    return;
  }
  // A fenced daemon must not reply rows it can no longer journal (the
  // promoted standby owns the history now); drop them - the caps stay
  // owed and the client retries against the new primary.
  if (fenced_) return;
  // Journal first, reply second: the reply row is the journal's bytes,
  // byte-compatible with offline sweeps.
  if (req.journal) {
    const robust::Status st = req.journal->append(entry);
    if (!st.ok()) {
      err_ << "powerlimd: journal append failed for " << req.id << ": "
           << st.to_string() << "\n";
      if (st.code() == robust::StatusCode::kStaleEpoch) {
        fence_self("row append for " + req.id + " fenced");
        return;
      }
    }
  }
  req.settled.push_back(entry.job_cap_watts);
  reply_row(req, entry);
}

void Daemon::reap_executors() {
  for (std::size_t i = 0; i < active_.size();) {
    Request& req = active_[i];
    int wait_status = 0;
    const pid_t r = req.pid > 0
                        ? ::waitpid(req.pid, &wait_status, WNOHANG)
                        : -1;
    if (req.pid > 0 && r == 0) {
      ++i;
      continue;
    }
    if (req.pid > 0) {
      // The child is reaped: never signal its pid again.
      req.pid = -1;
      // Drain whatever it wrote before dying; frames that made it out
      // whole are real results. Nonblocking reads: stop at EAGAIN too,
      // in case orphaned worker children still hold the write end open.
      for (;;) {
        char buf[65536];
        const ssize_t n = util::read_some(req.pipe_fd, buf, sizeof(buf));
        if (n <= 0) break;
        absorb_pipe(req, buf, static_cast<std::size_t>(n));
      }
      ::close(req.pipe_fd);
      req.pipe_fd = -1;
      if (req.solve()) {
        answer_solve(req, wait_status);
      } else {
        executor_died(req, wait_status);
      }
    }
    if (req.pid < 0 && req.pipe_fd < 0) {
      active_.erase(active_.begin() + static_cast<long>(i));
    } else {
      ++i;
    }
  }
}

void Daemon::answer_solve(Request& req, int wait_status) {
  const robust::WorkerAttemptVerdict v = robust::classify_worker_exit(
      req.deadline_killed, wait_status, req.child_bytes, req.caps[0]);
  req.child_bytes.clear();
  if (v.outcome != robust::WorkerOutcome::kOk) {
    // No degraded row and no second fork: the scheduler owns the retry.
    send_frame(req.conn_id, kTagError,
               encode_error(req.id, std::string(robust::to_string(v.outcome)) +
                                        " " + v.detail));
    ++finished_;
    out_ << "powerlimd: " << req.id << " " << robust::to_string(v.outcome)
         << ": " << v.detail << "\n";
    out_.flush();
    return;
  }
  ServeRow row;
  row.id = req.id;
  row.entry = v.entry;
  std::string frame = robust::encode_wire_frame(kTagRow, encode_row(row));
  // Worker-side network faults injure the delivery of an honest result
  // (net-lie already corrupted the solve itself).
  switch (req.net_fault) {
    case robust::NetFault::kDrop: {
      // Torn frame: ship half the row, then hang up.
      send_bytes(req.conn_id, frame.substr(0, frame.size() / 2));
      auto it = conns_.find(req.conn_id);
      if (it != conns_.end()) it->second.closing = true;
      ++finished_;
      return;
    }
    case robust::NetFault::kCorrupt: {
      // Flip one payload byte but keep the header's CRC: the scheduler's
      // decoder must reject the frame, not misread it.
      const std::size_t body = frame.find('\n');
      if (body != std::string::npos && body + 1 < frame.size()) {
        frame[body + 1] ^= 0x20;
      }
      break;
    }
    case robust::NetFault::kSlow:
      // Late but alive. The delay stalls the whole poll loop, which an
      // injected fault may do.
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::milli>(robust::kNetSlowDelayMs));
      break;
    default:
      break;
  }
  send_bytes(req.conn_id, frame);
  ++req.rows;
  if (!v.solution_text.empty()) {
    send_frame(req.conn_id, kTagArtifact,
               encode_artifact(req.id, v.solution_text));
  }
  finish(req, "ok", "");
}

void Daemon::executor_died(Request& req, int wait_status) {
  if (fenced_) {
    // No retry, no degraded rows: a fenced daemon has nothing durable
    // to offer. The unsettled caps are owed to the promoted standby.
    finish(req, "error", "daemon fenced by a newer epoch");
    return;
  }
  const bool clean_exit = WIFEXITED(wait_status);
  const int code = clean_exit ? WEXITSTATUS(wait_status) : -1;
  const bool all_settled = unsettled(req).empty();

  if (clean_exit && code == 0 && all_settled && !req.pipe_poisoned) {
    finish(req, "ok", "");
    return;
  }
  if (clean_exit && code == 75 && !req.pipe_poisoned) {
    // The executor stopped cooperatively at the deadline; every settled
    // cap is journaled, the rest are owed to --resume.
    finish(req, "deadline-exceeded",
           std::to_string(unsettled(req).size()) + " cap(s) unfinished");
    return;
  }
  if (req.deadline_killed) {
    finish(req, "deadline-exceeded",
           "executor killed at deadline; " +
               std::to_string(unsettled(req).size()) + " cap(s) unfinished");
    return;
  }

  if (req.spawns < 2) {
    // One fresh executor gets the unsettled caps; a request never
    // consumes more than two executors.
    spawn_executor(req);
    return;
  }
  // Name the death as the worker pool names a dead worker's, so a
  // degraded row reads exactly like an offline pooled sweep's. A corrupt
  // result stream is SIGKILLed in absorb_pipe, so it classifies as a
  // signal death.
  const robust::WorkerAttemptVerdict death =
      robust::classify_worker_exit(false, wait_status, {}, 0.0);
  degrade_unsettled(req, robust::status_code_for(death.outcome),
                    death.detail);
}

void Daemon::degrade_unsettled(Request& req, robust::StatusCode outcome,
                               const std::string& death) {
  // Second executor death: the remaining caps degrade to the
  // Static-policy bound through the same path an offline parallel
  // sweep uses for a twice-dead worker, so daemon and offline tables
  // and report `result`s stay byte-identical.
  const std::vector<double> owed = unsettled(req);
  int degraded = 0;
  try {
    robust::SolveDriverOptions driver_opt;
    driver_opt.cap_deadline_ms = opt_.cap_deadline_ms;
    // Offline sweeps always attach a cancel token, and the degraded
    // report records that ("cancellable") - attach one here too so the
    // degraded rows stay byte-identical with offline degraded rows.
    static const util::CancelToken never_cancelled;
    driver_opt.cancel = &never_cancelled;
    for (double cap : owed) {
      robust::WorkerFailure failure;
      failure.outcome = outcome;
      failure.detail = death;
      failure.spawns = req.spawns;
      const robust::JournalEntry entry = robust::degraded_entry_for_failure(
          *req.graph, model_, cluster_, driver_opt, cap, failure);
      if (req.journal) {
        const robust::Status st = req.journal->append(entry);
        if (!st.ok()) {
          err_ << "powerlimd: journal append failed for " << req.id << ": "
               << st.to_string() << "\n";
        }
      }
      req.settled.push_back(cap);
      reply_row(req, entry);
      ++degraded;
      ++degraded_caps_;
    }
  } catch (const std::exception& e) {
    finish(req, "error", death + "; degrade failed: " + e.what());
    return;
  }
  finish(req, "ok",
         death + "; " + std::to_string(degraded) + " cap(s) degraded");
}

std::vector<double> Daemon::unsettled(const Request& req) const {
  std::vector<double> owed;
  for (double cap : req.pending) {
    if (std::find(req.settled.begin(), req.settled.end(), cap) ==
        req.settled.end())
      owed.push_back(cap);
  }
  return owed;
}

void Daemon::finish(Request& req, const std::string& status,
                    const std::string& detail) {
  ServeDone d;
  d.id = req.id;
  d.status = status;
  d.rows = req.rows;
  d.resumed = req.resumed;
  d.shed_total = shed_total_;
  d.queue_depth = static_cast<int>(queued_.size());
  d.queue_wait_ms = req.exec_start.time_since_epoch().count() != 0
                        ? std::chrono::duration<double, std::milli>(
                              req.exec_start - req.admitted)
                              .count()
                        : 0.0;
  d.solve_ms = req.exec_start.time_since_epoch().count() != 0
                   ? ms_since(req.exec_start)
                   : 0.0;
  d.total_ms = ms_since(req.admitted);
  d.detail = detail;
  send_frame(req.conn_id, kTagDone, encode_done(d));
  req.journal.reset();
  ++finished_;
  out_ << "powerlimd: " << req.id << " " << status << " rows=" << d.rows
       << " resumed=" << d.resumed << " total_ms=" << d.total_ms << "\n";
  out_.flush();
}

// ---------------------------------------------------------------------------
// Replies and connection hygiene.

void Daemon::send_frame(std::uint64_t conn_id, char tag,
                        const std::string& payload) {
  send_bytes(conn_id, robust::encode_wire_frame(tag, payload));
}

void Daemon::send_bytes(std::uint64_t conn_id, const std::string& bytes) {
  auto it = conns_.find(conn_id);
  if (it == conns_.end()) return;  // client left; the journal has it
  if (bytes.empty()) return;
  it->second.outbuf += bytes;
  flush_conn(it->second);
}

void Daemon::send_overloaded(std::uint64_t conn_id, const std::string& id,
                             const std::string& reason,
                             const std::string& detail) {
  ServeOverloaded o;
  o.id = id;
  o.reason = reason;
  o.detail = detail;
  send_frame(conn_id, kTagOverloaded, encode_overloaded(o));
}

void Daemon::reply_row(Request& req, const robust::JournalEntry& entry) {
  ++req.rows;
  if (req.conn_id == 0) return;
  ServeRow row;
  row.id = req.id;
  row.entry = entry;
  const std::string payload = encode_row(row);
  if (!payload.empty()) send_frame(req.conn_id, kTagRow, payload);
}

void Daemon::flush_conn(Conn& conn) {
  if (conn.outbuf.empty()) return;
  std::size_t sent = 0;
  const util::IoStatus st = util::send_nonblock(
      conn.fd, conn.outbuf.data(), conn.outbuf.size(), &sent);
  if (sent > 0) {
    conn.outbuf.erase(0, sent);
    conn.last_progress = Clock::now();
  }
  // kTimeout = socket buffer full; the poll loop re-arms POLLOUT while
  // outbuf is non-empty, so just come back later.
  if (st == util::IoStatus::kOk || st == util::IoStatus::kTimeout) return;
  drop_conn(conn.id, "send failed");
}

void Daemon::drop_conn(std::uint64_t conn_id, const char* why) {
  auto it = conns_.find(conn_id);
  if (it == conns_.end()) return;
  (void)why;
  if (it->second.fd >= 0) ::close(it->second.fd);
  conns_.erase(it);
  standbys_.erase(conn_id);
  // Nobody is left to read this connection's solves: stop their
  // children (the reap answers into the void). Queued ones are dropped
  // when the scheduler reaches them.
  for (const Request& req : active_) {
    if (req.solve() && req.conn_id == conn_id && req.pid > 0) {
      ::kill(req.pid, SIGKILL);
    }
  }
}

void Daemon::reap_conns() {
  std::vector<std::uint64_t> doomed;
  for (auto& [id, conn] : conns_) {
    if (conn.closing && conn.outbuf.empty()) {
      doomed.push_back(id);
      continue;
    }
    // A connection that never completes its handshake, or whose
    // buffered replies make no progress, is a stalled or hostile
    // client: drop it so its buffer cannot grow without bound. Its
    // requests keep running - the journal still gets every row.
    if (!conn.handshaken && sec_since(conn.opened) > opt_.io_timeout_s) {
      doomed.push_back(id);
      continue;
    }
    if (!conn.outbuf.empty() &&
        sec_since(conn.last_progress) > opt_.io_timeout_s) {
      doomed.push_back(id);
      continue;
    }
    // Repl connections are legitimately read-silent for long stretches
    // (acks only flow while journal bytes do); the primary's heartbeats
    // keep the socket honest, so exempt them from idle reaping.
    if (conn.handshaken && !conn.repl && conn.outbuf.empty() &&
        sec_since(conn.last_read) > opt_.idle_timeout_s) {
      bool in_flight = false;
      for (const Request& req : queued_) {
        if (req.conn_id == id) in_flight = true;
      }
      for (const Request& req : active_) {
        if (req.conn_id == id) in_flight = true;
      }
      if (!in_flight) doomed.push_back(id);
    }
  }
  for (std::uint64_t id : doomed) drop_conn(id, "reaped");
}

// ---------------------------------------------------------------------------
// High availability: replication hub (primary side) and failover.

void Daemon::handle_repl_hello(Conn& conn, const robust::WireFrame& frame) {
  const std::uint64_t conn_id = conn.id;
  ReplHello hello;
  std::string why;
  ReplHelloAck ack;
  if (!decode_repl_hello(frame.payload, &hello, &why)) {
    conn.closing = true;
    ack.error = why;
    send_frame(conn_id, kTagReplHelloAck, encode_repl_hello_ack(ack));
    return;
  }
  if (standby_) {
    conn.closing = true;
    ack.error = "peer is a standby; replicate from the primary";
    send_frame(conn_id, kTagReplHelloAck, encode_repl_hello_ack(ack));
    return;
  }
  if (draining_ || fenced_) {
    conn.closing = true;
    ack.error = fenced_ ? "daemon is fenced" : "daemon is draining";
    send_frame(conn_id, kTagReplHelloAck, encode_repl_hello_ack(ack));
    return;
  }
  if (hello.epoch > epoch_) {
    // The dialing standby was promoted past us: *we* are the deposed
    // primary. Refuse the link and fence - this is how a rebooted
    // ex-primary learns it lost without sharing a filesystem.
    conn.closing = true;
    ack.error = "stale primary: standby epoch " +
                std::to_string(hello.epoch) + " > local epoch " +
                std::to_string(epoch_);
    send_frame(conn_id, kTagReplHelloAck, encode_repl_hello_ack(ack));
    fence_self("repl hello carried epoch " + std::to_string(hello.epoch));
    return;
  }
  conn.handshaken = true;
  conn.repl = true;
  StandbyPeer peer;
  peer.epoch = hello.epoch;
  struct PendingResync {
    std::string hash;
    std::string why;
  };
  std::vector<PendingResync> resyncs;
  for (const ReplMark& mark : hello.marks) {
    if (!valid_trace_hash(mark.hash)) {
      drop_conn(conn_id, "hostile mark hash");
      return;
    }
    const std::string path = journal_path(opt_.state_dir, mark.hash);
    struct stat sb = {};
    const std::uint64_t local =
        ::stat(path.c_str(), &sb) == 0
            ? static_cast<std::uint64_t>(sb.st_size)
            : 0;
    std::uint32_t crc = 0;
    if (mark.offset > local) {
      resyncs.push_back({mark.hash, "standby holds bytes the primary lacks"});
    } else if (!file_prefix_crc(path, mark.offset, &crc) ||
               crc != mark.crc) {
      // Equal-length prefixes with different CRCs are different
      // histories - the one case offsets alone cannot catch.
      resyncs.push_back({mark.hash, "journal history diverged"});
    } else {
      peer.sent[mark.hash] = mark.offset;
      peer.acked[mark.hash] = mark.offset;
    }
  }
  standbys_[conn_id] = std::move(peer);
  ack.ok = true;
  ack.epoch = epoch_;
  send_frame(conn_id, kTagReplHelloAck, encode_repl_hello_ack(ack));
  for (const PendingResync& r : resyncs) {
    if (conns_.find(conn_id) == conns_.end()) return;
    send_resync(conn_id, r.hash, r.why);
  }
  out_ << "powerlimd: standby connected (epoch " << hello.epoch << ", "
       << hello.marks.size() << " mark(s))\n";
  out_.flush();
  repl_stream(journal_hashes(opt_.state_dir));
}

void Daemon::handle_repl_ack(Conn& conn, const robust::WireFrame& frame) {
  const std::uint64_t conn_id = conn.id;
  ReplAck ack;
  if (!decode_repl_ack(frame.payload, &ack)) {
    drop_conn(conn_id, "malformed repl ack");
    return;
  }
  if (ack.epoch > epoch_) {
    drop_conn(conn_id, "fenced");
    fence_self("repl ack carried epoch " + std::to_string(ack.epoch));
    return;
  }
  if (!valid_trace_hash(ack.hash)) {
    drop_conn(conn_id, "hostile ack hash");
    return;
  }
  auto pit = standbys_.find(conn_id);
  if (pit == standbys_.end()) {
    drop_conn(conn_id, "ack before repl hello");
    return;
  }
  StandbyPeer& peer = pit->second;
  peer.epoch = std::max(peer.epoch, ack.epoch);
  const std::string path = journal_path(opt_.state_dir, ack.hash);
  struct stat sb = {};
  const std::uint64_t local = ::stat(path.c_str(), &sb) == 0
                                  ? static_cast<std::uint64_t>(sb.st_size)
                                  : 0;
  if (ack.offset > local) {
    send_resync(conn_id, ack.hash, "standby holds bytes the primary lacks");
    return;
  }
  std::uint64_t& sent = peer.sent[ack.hash];
  std::uint64_t& acked = peer.acked[ack.hash];
  if (ack.offset > sent) {
    // An ack for bytes we never streamed. The one innocent case is a
    // freshly-reset replica acking its deterministic header (post-
    // resync); anything else is history we cannot vouch for.
    if (ack.offset != robust::journal_header_bytes()) {
      send_resync(conn_id, ack.hash, "ack beyond streamed bytes");
      return;
    }
    sent = ack.offset;
  } else if (ack.offset == acked && ack.offset < sent) {
    // The same mark twice with bytes outstanding: the standby refused
    // an apply (offset mismatch). Rewind and restream from its mark.
    sent = ack.offset;
  }
  acked = ack.offset;
  if (sent < local) repl_dirty_.insert(ack.hash);
}

void Daemon::send_resync(std::uint64_t conn_id, const std::string& hash,
                         const std::string& why) {
  auto it = standbys_.find(conn_id);
  if (it != standbys_.end()) {
    it->second.sent.erase(hash);
    it->second.acked.erase(hash);
  }
  ReplResync r;
  r.hash = hash;
  r.detail = why;
  send_frame(conn_id, kTagReplResync, encode_repl_resync(r));
}

void Daemon::stream_journal_to(std::uint64_t conn_id,
                               const std::string& hash) {
  // Backpressure ceiling: a standby that cannot drain its socket gets
  // its remaining delta on a later pass instead of an unbounded buffer
  // (the same slow-peer containment clients get).
  constexpr std::size_t kReplSoftBuffer = 1u << 20;
  constexpr std::size_t kReplChunk = 256u << 10;

  auto cit = conns_.find(conn_id);
  auto pit = standbys_.find(conn_id);
  if (cit == conns_.end() || pit == standbys_.end()) return;
  if (cit->second.outbuf.size() > kReplSoftBuffer) {
    repl_dirty_.insert(hash);
    return;
  }
  if (pit->second.traces_sent.insert(hash).second) {
    std::ifstream tf(trace_path(opt_.state_dir, hash));
    std::stringstream buf;
    buf << tf.rdbuf();
    if (tf) {
      ReplTrace t;
      t.hash = hash;
      t.trace_text = buf.str();
      send_frame(conn_id, kTagReplTrace, encode_repl_trace(t));
      if (conns_.find(conn_id) == conns_.end()) return;
      pit = standbys_.find(conn_id);
      if (pit == standbys_.end()) return;
    } else {
      pit->second.traces_sent.erase(hash);  // not snapshotted yet; retry
    }
  }
  const std::string path = journal_path(opt_.state_dir, hash);
  struct stat sb = {};
  if (::stat(path.c_str(), &sb) != 0) return;
  const std::uint64_t size = static_cast<std::uint64_t>(sb.st_size);
  const std::uint64_t header = robust::journal_header_bytes();
  // Never stream the magic line: every replica's journal is created
  // with the identical header, so byte `header` is where histories can
  // first differ.
  std::uint64_t from = std::max(pit->second.sent[hash], header);
  pit->second.sent[hash] = from;
  while (from < size) {
    std::string bytes;
    const std::size_t want =
        static_cast<std::size_t>(std::min<std::uint64_t>(size - from,
                                                         kReplChunk));
    if (!read_file_range(path, from, want, &bytes) || bytes.empty()) return;
    ReplJournal j;
    j.hash = hash;
    j.offset = from;
    j.epoch = epoch_;
    j.bytes = std::move(bytes);
    const std::uint64_t len = j.bytes.size();
    send_frame(conn_id, kTagReplJournal, encode_repl_journal(j));
    cit = conns_.find(conn_id);
    pit = standbys_.find(conn_id);
    if (cit == conns_.end() || pit == standbys_.end()) return;
    from += len;
    pit->second.sent[hash] = from;
    if (cit->second.outbuf.size() > kReplSoftBuffer) {
      repl_dirty_.insert(hash);
      return;
    }
  }
}

void Daemon::repl_stream(const std::vector<std::string>& hashes) {
  if (standbys_.empty()) return;
  std::vector<std::uint64_t> ids;
  for (const auto& [id, peer] : standbys_) ids.push_back(id);
  for (std::uint64_t id : ids) {
    for (const std::string& hash : hashes) stream_journal_to(id, hash);
  }
}

void Daemon::repl_tick() {
  if (standby_) {
    if (!standby_link_) return;
    standby_link_->tick();
    epoch_ = std::max(epoch_, standby_link_->epoch());
    if (!draining_ && opt_.promote_after_ms > 0.0 &&
        standby_link_->silence_ms() > opt_.promote_after_ms) {
      promote_self("heartbeat-loss");
    }
    return;
  }
  if (fenced_) return;
  if (standbys_.empty()) {
    repl_dirty_.clear();
    last_heartbeat_ = Clock::now();
    return;
  }
  if (ms_since(last_heartbeat_) >= opt_.repl_heartbeat_ms) {
    last_heartbeat_ = Clock::now();
    std::vector<std::uint64_t> ids;
    for (const auto& [id, peer] : standbys_) ids.push_back(id);
    const std::string beat = encode_repl_heartbeat(epoch_);
    for (std::uint64_t id : ids) {
      send_frame(id, kTagReplHeartbeat, beat);
    }
    // Reconciliation pass (cheap stat-compares when nothing changed):
    // catches appends from foreign writers sharing the state dir,
    // which never poke the dirty set.
    repl_dirty_.clear();
    repl_stream(journal_hashes(opt_.state_dir));
    return;
  }
  if (!repl_dirty_.empty()) {
    const std::vector<std::string> dirty(repl_dirty_.begin(),
                                         repl_dirty_.end());
    repl_dirty_.clear();
    repl_stream(dirty);
  }
}

void Daemon::handle_promote(Conn& conn) {
  const std::uint64_t conn_id = conn.id;
  PromoteAck ack;
  if (fenced_ || draining_) {
    ack.error = fenced_ ? "daemon is fenced" : "daemon is draining";
  } else {
    if (standby_) promote_self("operator");
    ack.ok = true;
    ack.epoch = epoch_;
  }
  send_frame(conn_id, kTagPromoteAck, encode_promote_ack(ack));
}

void Daemon::promote_self(const char* why) {
  if (!standby_) return;
  std::uint64_t highest = epoch_;
  if (standby_link_) {
    highest = std::max(highest, standby_link_->epoch());
    standby_link_->close_link();
    standby_link_.reset();
  }
  epoch_ = highest + 1;
  standby_ = false;
  std::string error;
  if (!store_epoch_file(opt_.state_dir, epoch_, &error)) {
    err_ << "powerlimd: promote: cannot persist epoch " << epoch_ << ": "
         << error << "\n";
  }
  // Stamp the new epoch into every journal: from this moment a deposed
  // primary sharing these files is durably fenced out of them.
  for (const std::string& hash : journal_hashes(opt_.state_dir)) {
    auto opened =
        robust::SweepJournal::open(journal_path(opt_.state_dir, hash));
    if (!opened.ok()) {
      err_ << "powerlimd: promote: cannot open " << hash << ": "
           << opened.status().to_string() << "\n";
      continue;
    }
    const robust::Status st = opened.value().advance_epoch(epoch_);
    if (!st.ok()) {
      err_ << "powerlimd: promote: cannot stamp " << hash << ": "
           << st.to_string() << "\n";
    }
  }
  out_ << "powerlimd: promoted to primary at epoch " << epoch_ << " ("
       << why << ")\n";
  out_.flush();
  // The promoted primary owns the owed work now: finish every journaled
  // intent whose caps still lack standing records. Proven rows are
  // served from the replica journal, never re-solved.
  if (opt_.resume) startup_resume();
}

void Daemon::fence_self(const std::string& why) {
  if (fenced_) return;
  fenced_ = true;
  err_ << "powerlimd: fenced (" << why
       << "): a newer primary exists; draining\n";
  err_.flush();
  // Active executors' rows can no longer be journaled or trusted; kill
  // them rather than reply with results outside the durable history.
  for (Request& req : active_) {
    if (req.pid > 0) ::kill(req.pid, SIGKILL);
  }
  if (!draining_) begin_drain("fenced");
}

void Daemon::handle_standby_request(std::uint64_t conn_id,
                                    ServeRequest&& sr) {
  // A standby is a read replica: it serves a request if and only if its
  // trace is the replicated snapshot under its hash and *every* cap has
  // a standing record in the replica journal; anything
  // less is shed with a typed reason so failover clients move on to the
  // primary, and a trace that only collides with the snapshot gets `E`.
  // No partial row streams - a half answer would duplicate rows once the
  // client retries elsewhere.
  Request req;
  req.conn_id = conn_id;
  req.id = sr.id;
  req.kind = sr.kind;
  req.caps = sr.caps;
  req.hash = trace_hash(sr.trace_text);
  const Snapshot match =
      compare_snapshot(trace_path(opt_.state_dir, req.hash), sr.trace_text);
  if (match == Snapshot::kOther) {
    send_frame(conn_id, kTagError,
               encode_error(req.id, collision_error(req.hash)));
    return;
  }
  const std::string path = journal_path(opt_.state_dir, req.hash);
  int proven = 0;
  std::unique_ptr<robust::SweepJournal> journal;
  struct stat sb = {};
  if (match == Snapshot::kSame && ::stat(path.c_str(), &sb) == 0) {
    auto opened = robust::SweepJournal::open(path);
    if (opened.ok()) {
      journal = std::make_unique<robust::SweepJournal>(
          std::move(opened).value());
      for (double cap : req.caps) {
        if (journal->contains(cap)) ++proven;
      }
    }
  }
  if (journal == nullptr ||
      proven != static_cast<int>(req.caps.size())) {
    ++shed_total_;
    send_overloaded(conn_id, req.id, "standby",
                    "read-only standby (" + std::to_string(proven) + "/" +
                        std::to_string(req.caps.size()) +
                        " caps proven); retry against the primary");
    return;
  }
  for (double cap : req.caps) {
    ++req.resumed;
    reply_row(req, *journal->find(cap));
  }
  finish(req, "ok", "served from standby replica");
}

}  // namespace

int serve(const ServeOptions& options, const machine::PowerModel& model,
          const machine::ClusterSpec& cluster, std::ostream& out,
          std::ostream& err) {
  Daemon daemon(options, model, cluster, out, err);
  return daemon.run();
}

}  // namespace powerlim::serve
