#include "robust/remote_worker.h"

#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <optional>
#include <ostream>
#include <sstream>
#include <utility>

#include "core/schedule_io.h"
#include "dag/trace_io.h"
#include "machine/power_model.h"
#include "robust/journal.h"
#include "robust/pipeline.h"
#include "robust/solve_driver.h"
#include "robust/wire.h"
#include "util/log.h"
#include "util/posix_io.h"

namespace powerlim::robust {
namespace {

using Clock = std::chrono::steady_clock;

double ms_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

void sleep_ms(double ms) {
  if (ms <= 0.0) return;
  struct timespec ts;
  ts.tv_sec = static_cast<time_t>(ms / 1000.0);
  ts.tv_nsec = static_cast<long>(std::fmod(ms, 1000.0) * 1e6);
  nanosleep(&ts, nullptr);
}

}  // namespace

// --- handshake / job payloads ----------------------------------------

std::string encode_handshake(const RemoteSolveConfig& config,
                             const dag::TaskGraph& graph) {
  std::ostringstream os;
  os << kRemoteProtoMagic << "\n";
  char line[192];
  std::snprintf(line, sizeof line,
                "config cap_deadline_ms=%.17g validate_replay=%d "
                "verify_certificate=%d discrete=%d\n",
                config.cap_deadline_ms, config.validate_replay ? 1 : 0,
                config.verify_certificate ? 1 : 0, config.discrete ? 1 : 0);
  os << line;
  dag::write_trace(os, graph);
  return os.str();
}

bool decode_handshake(const std::string& payload, RemoteSolveConfig* config,
                      std::string* trace_text, std::string* error) {
  const std::size_t eol1 = payload.find('\n');
  if (eol1 == std::string::npos) {
    if (error) *error = "truncated handshake (no magic line)";
    return false;
  }
  if (payload.substr(0, eol1) != kRemoteProtoMagic) {
    if (error) {
      *error = "protocol mismatch (want \"" + std::string(kRemoteProtoMagic) +
               "\", got \"" + payload.substr(0, std::min<std::size_t>(eol1, 64)) +
               "\")";
    }
    return false;
  }
  const std::size_t eol2 = payload.find('\n', eol1 + 1);
  if (eol2 == std::string::npos) {
    if (error) *error = "truncated handshake (no config line)";
    return false;
  }
  const std::string line = payload.substr(eol1 + 1, eol2 - eol1 - 1);
  RemoteSolveConfig c;
  int replay = 1;
  int certificate = 1;
  int discrete = 0;
  if (std::sscanf(line.c_str(),
                  "config cap_deadline_ms=%lg validate_replay=%d "
                  "verify_certificate=%d discrete=%d",
                  &c.cap_deadline_ms, &replay, &certificate, &discrete) != 4) {
    if (error) *error = "malformed handshake config line";
    return false;
  }
  c.validate_replay = replay != 0;
  c.verify_certificate = certificate != 0;
  c.discrete = discrete != 0;
  if (config) *config = c;
  if (trace_text) *trace_text = payload.substr(eol2 + 1);
  return true;
}

std::string encode_job(double job_cap_watts, int attempt) {
  char line[96];
  std::snprintf(line, sizeof line, "cap=%.17g attempt=%d", job_cap_watts,
                attempt);
  return line;
}

bool decode_job(const std::string& payload, double* job_cap_watts,
                int* attempt) {
  double cap = 0.0;
  int att = 0;
  if (std::sscanf(payload.c_str(), "cap=%lg attempt=%d", &cap, &att) != 2) {
    return false;
  }
  if (job_cap_watts) *job_cap_watts = cap;
  if (attempt) *attempt = att;
  return true;
}

// --- serve-worker ----------------------------------------------------

namespace {

/// One accepted scheduler connection with its framing state.
struct ServeConn {
  int fd = -1;
  FrameStream stream;
};

enum class RecvOutcome { kFrame, kDisconnected, kCancelled, kCorrupt };

/// Blocks (in 100 ms poll slices, cancel-checked) until one complete
/// frame is decoded. Used between jobs, where no heartbeats flow.
RecvOutcome recv_frame(ServeConn& conn, WireFrame* frame,
                       const util::CancelToken* cancel) {
  for (;;) {
    const WireDecode d = conn.stream.next(frame);
    if (d == WireDecode::kOk) return RecvOutcome::kFrame;
    if (conn.stream.poisoned()) return RecvOutcome::kCorrupt;
    if (cancel && cancel->cancelled()) return RecvOutcome::kCancelled;
    struct pollfd pfd;
    pfd.fd = conn.fd;
    pfd.events = POLLIN;
    const int ready =
        util::retry_eintr([&] { return ::poll(&pfd, 1, 100); });
    if (ready < 0) return RecvOutcome::kDisconnected;
    if (ready == 0) continue;
    std::string chunk;
    const util::IoStatus st = util::recv_some(conn.fd, &chunk);
    if (st == util::IoStatus::kDisconnected || st == util::IoStatus::kError) {
      return RecvOutcome::kDisconnected;
    }
    conn.stream.feed(chunk);
  }
}

bool send_frame(int fd, char tag, const std::string& payload) {
  const std::string frame = encode_wire_frame(tag, payload);
  if (frame.empty()) return false;
  return util::send_all(fd, frame.data(), frame.size(), 10.0) ==
         util::IoStatus::kOk;
}

/// The per-job solve the forked child runs. It ships the accepted
/// schedule as an 'S' artifact so the scheduler's certificate gate can
/// re-verify the result it cannot otherwise trust.
WorkerTaskSpec job_task(const dag::TaskGraph& graph,
                        const machine::PowerModel& model,
                        const machine::ClusterSpec& cluster,
                        const RemoteSolveConfig& config, double cap, bool lie,
                        const util::CancelToken* cancel) {
  WorkerTaskSpec job;
  job.job_cap_watts = cap;
  job.run = [&graph, &model, &cluster, config, cap, lie,
             cancel](int attempt) -> WorkerTaskOutput {
    SolveDriverOptions opt;
    opt.cap_deadline_ms = config.cap_deadline_ms;
    opt.validate_replay = config.validate_replay;
    opt.verify_certificate = !lie && config.verify_certificate;
    opt.lp.discrete = config.discrete;
    opt.cancel = cancel;
    FaultPlan lie_plan;
    std::optional<ScopedFaultPlan> lie_scope;
    if (lie) {
      // The Byzantine worker: skip local verification and ship a bound
      // shrunk just past feasibility. Invisible to replay; only the
      // scheduler's exact certificate gate can catch it.
      lie_plan.corrupt_solution_epsilon = 0.05;
      lie_scope.emplace(lie_plan);
    }
    const SolveOutcome out =
        SolveDriver(graph, model, cluster, opt).solve(cap);
    JournalEntry entry = isolated_worker_entry(out.report, attempt);
    if (out.report.verdict != StatusCode::kOk) return entry;
    core::SavedSchedule saved;
    saved.schedule = out.lp.schedule;
    saved.frontiers = out.lp.frontiers;
    saved.vertex_time = out.lp.vertex_time;
    saved.job_cap_watts = cap;
    saved.makespan = out.lp.makespan;
    std::ostringstream ss;
    core::write_schedule(ss, saved);
    return {std::move(entry), ss.str()};
  };
  return job;
}

enum class JobServe { kServed, kClientGone, kCancelled };

/// Forks one solve child for the job and supervises it: heartbeats to
/// the scheduler while it runs, client-EOF kills it, cancellation drains
/// it gracefully (SIGTERM -> the child's pivot-granularity cancel ->
/// its final 'R' frame is still flushed). Worker-side fault injection
/// happens here, on the *delivery* of an honest result (except kLie,
/// which corrupts the solve itself).
JobServe supervise_job(ServeConn& conn, const dag::TaskGraph& graph,
                       const machine::PowerModel& model,
                       const machine::ClusterSpec& cluster,
                       const RemoteSolveConfig& config, double cap,
                       int attempt, double wall_seconds,
                       const ServeWorkerOptions& options, std::ostream& err) {
  const bool injured =
      options.fault != NetFault::kNone && attempt < options.fault_attempts;

  if (injured && options.fault == NetFault::kStall) {
    // Dead-peer simulation: accept the job, then fall silent. Drain the
    // socket so the eventual client disconnect is observed.
    for (;;) {
      if (options.cancel && options.cancel->cancelled()) {
        return JobServe::kCancelled;
      }
      struct pollfd pfd;
      pfd.fd = conn.fd;
      pfd.events = POLLIN;
      const int ready =
          util::retry_eintr([&] { return ::poll(&pfd, 1, 100); });
      if (ready < 0) return JobServe::kClientGone;
      if (ready == 0) continue;
      std::string sink;
      const util::IoStatus st = util::recv_some(conn.fd, &sink);
      if (st == util::IoStatus::kDisconnected ||
          st == util::IoStatus::kError) {
        return JobServe::kClientGone;
      }
    }
  }

  const bool lie = injured && options.fault == NetFault::kLie;

  const WorkerTaskSpec job =
      job_task(graph, model, cluster, config, cap, lie, options.cancel);
  SpawnedWorker child;
  if (!spawn_worker(job, attempt, options.limits,
                    static_cast<int>(::getpid() % 1000), {conn.fd}, &child)) {
    send_frame(conn.fd, 'E',
               std::string("worker-crashed cannot spawn worker: ") +
                   std::strerror(errno));
    return JobServe::kServed;
  }
  const pid_t pid = child.pid;
  const int pipe_fd = child.read_fd;

  const Clock::time_point start = Clock::now();
  Clock::time_point last_beat = start;
  // kSlow widens the heartbeat cadence: every frame arrives late, but
  // below the scheduler's dead-peer threshold - slow, provably alive.
  const double beat_interval =
      options.heartbeat_ms +
      (injured && options.fault == NetFault::kSlow ? options.slow_delay_ms
                                                   : 0.0);
  bool termed = false;
  bool killed = false;
  bool deadline_killed = false;
  bool client_gone = false;
  Clock::time_point term_at = start;
  std::string pipe_bytes;

  for (;;) {
    const Clock::time_point now = Clock::now();
    if (options.cancel && options.cancel->cancelled() && !termed && !killed) {
      ::kill(pid, SIGTERM);  // graceful: the child flushes a kCancelled 'R'
      termed = true;
      term_at = now;
    }
    if (termed && !killed && ms_between(term_at, now) > 5000.0) {
      ::kill(pid, SIGKILL);
      killed = true;
    }
    if (wall_seconds > 0.0 && !killed &&
        ms_between(start, now) > wall_seconds * 1000.0) {
      ::kill(pid, SIGKILL);
      killed = true;
      deadline_killed = true;
    }
    if (!client_gone && ms_between(last_beat, now) >= beat_interval) {
      if (!send_frame(conn.fd, 'H', "")) client_gone = true;
      last_beat = now;
    }
    if (client_gone && !killed) {
      ::kill(pid, SIGKILL);
      killed = true;
    }

    struct pollfd pfds[2];
    pfds[0].fd = pipe_fd;
    pfds[0].events = POLLIN;
    pfds[1].fd = conn.fd;
    pfds[1].events = POLLIN;
    const int ready = util::retry_eintr(
        [&] { return ::poll(pfds, client_gone ? 1 : 2, 50); });
    if (ready > 0 && !client_gone && (pfds[1].revents & (POLLIN | POLLHUP))) {
      std::string chunk;
      const util::IoStatus st = util::recv_some(conn.fd, &chunk);
      if (st == util::IoStatus::kDisconnected ||
          st == util::IoStatus::kError) {
        client_gone = true;
      } else {
        conn.stream.feed(chunk);  // e.g. a pipelined 'Q'
      }
    }
    if (ready > 0 && (pfds[0].revents & (POLLIN | POLLHUP))) {
      char buf[4096];
      const ssize_t n = util::read_some(pipe_fd, buf, sizeof buf);
      if (n > 0) {
        pipe_bytes.append(buf, static_cast<std::size_t>(n));
      } else if (n == 0) {
        break;  // child closed its pipe: done (or dead)
      }
    }
  }
  ::close(pipe_fd);
  int wait_status = 0;
  util::retry_eintr([&] { return ::waitpid(pid, &wait_status, 0); });

  if (client_gone) return JobServe::kClientGone;

  const WorkerAttemptVerdict v =
      classify_worker_exit(deadline_killed, wait_status, pipe_bytes, cap);

  if (v.outcome != WorkerOutcome::kOk) {
    const std::string payload =
        std::string(to_string(v.outcome)) + " " + v.detail;
    if (!send_frame(conn.fd, 'E', payload)) return JobServe::kClientGone;
    return (options.cancel && options.cancel->cancelled())
               ? JobServe::kCancelled
               : JobServe::kServed;
  }

  std::string result = encode_wire_frame('R', serialize_journal_entry(v.entry));
  if (injured && options.fault == NetFault::kDrop) {
    // Torn frame: ship half the result, then hang up.
    util::send_all(conn.fd, result.data(), result.size() / 2, 10.0);
    ::shutdown(conn.fd, SHUT_RDWR);
    return JobServe::kClientGone;
  }
  if (injured && options.fault == NetFault::kCorrupt) {
    // Flip one payload byte but keep the original CRC in the header:
    // the scheduler's decoder must reject the frame, not misread it.
    const std::size_t body = result.find('\n');
    if (body != std::string::npos && body + 1 < result.size()) {
      result[body + 1] ^= 0x20;
    }
  }
  if (injured && options.fault == NetFault::kSlow) {
    sleep_ms(options.slow_delay_ms);
  }
  if (util::send_all(conn.fd, result.data(), result.size(), 10.0) !=
      util::IoStatus::kOk) {
    return JobServe::kClientGone;
  }
  if (!v.solution_text.empty() &&
      !send_frame(conn.fd, 'S', v.solution_text)) {
    return JobServe::kClientGone;
  }
  if (options.cancel && options.cancel->cancelled()) {
    return JobServe::kCancelled;
  }
  (void)err;
  return JobServe::kServed;
}

/// One scheduler connection: handshake, then jobs until 'Q' / EOF /
/// cancellation.
void handle_connection(int fd, const ServeWorkerOptions& options,
                       std::ostream& err) {
  ServeConn conn;
  conn.fd = fd;

  WireFrame frame;
  const RecvOutcome hs = recv_frame(conn, &frame, options.cancel);
  if (hs != RecvOutcome::kFrame) {
    if (hs == RecvOutcome::kCorrupt) {
      err << "serve-worker: rejecting connection: " << conn.stream.last_error()
          << "\n";
      send_frame(fd, 'A', "error " + conn.stream.last_error());
    }
    return;
  }
  if (frame.tag != 'T') {
    send_frame(fd, 'A', "error expected handshake frame");
    return;
  }
  RemoteSolveConfig config;
  std::string trace_text;
  std::string hs_error;
  if (!decode_handshake(frame.payload, &config, &trace_text, &hs_error)) {
    err << "serve-worker: bad handshake: " << hs_error << "\n";
    send_frame(fd, 'A', "error " + hs_error);
    return;
  }
  std::optional<dag::TaskGraph> graph;
  try {
    std::istringstream in(trace_text);
    graph.emplace(dag::read_trace(in, "<remote>"));
  } catch (const std::exception& e) {
    err << "serve-worker: bad trace in handshake: " << e.what() << "\n";
    send_frame(fd, 'A', std::string("error bad trace: ") + e.what());
    return;
  }
  // The scheduler solves against the CLI's default machine model; the
  // worker must build the identical one for byte-identical results.
  const machine::PowerModel model{machine::SocketSpec{}};
  const machine::ClusterSpec cluster{};

  if (!send_frame(fd, 'A', "ok")) return;

  double wall_seconds = options.limits.wall_seconds;
  if (wall_seconds <= 0.0 && config.cap_deadline_ms > 0.0) {
    // Same derivation as the local pool: cap deadline plus grace for
    // the fallback simulation and result serialization.
    wall_seconds = config.cap_deadline_ms / 1000.0 + 2.0;
  }

  for (;;) {
    if (options.cancel && options.cancel->cancelled()) return;
    const RecvOutcome r = recv_frame(conn, &frame, options.cancel);
    if (r != RecvOutcome::kFrame) {
      if (r == RecvOutcome::kCorrupt) {
        err << "serve-worker: dropping connection: "
            << conn.stream.last_error() << "\n";
      }
      return;
    }
    if (frame.tag == 'Q') return;
    if (frame.tag != 'J') continue;
    double cap = 0.0;
    int attempt = 0;
    if (!decode_job(frame.payload, &cap, &attempt)) {
      err << "serve-worker: malformed job payload; dropping connection\n";
      return;
    }
    const JobServe served = supervise_job(conn, *graph, model, cluster, config,
                                          cap, attempt, wall_seconds, options,
                                          err);
    if (served != JobServe::kServed) return;
  }
}

}  // namespace

int serve_worker(const ServeWorkerOptions& options, std::ostream& out,
                 std::ostream& err) {
  util::ignore_sigpipe();
  std::string listen_error;
  const int listen_fd =
      util::listen_tcp(options.listen.host, options.listen.port,
                       &listen_error);
  if (listen_fd < 0) {
    err << "serve-worker: " << listen_error << "\n";
    return 1;
  }
  const int port = util::bound_port(listen_fd);
  out << "serve-worker: listening on " << options.listen.host << ":" << port
      << "\n";
  out.flush();
  if (!options.port_file.empty()) {
    // Write-then-rename so a polling reader never sees a partial file.
    const std::string tmp = options.port_file + ".tmp";
    {
      std::ofstream pf(tmp, std::ios::trunc);
      pf << port << "\n";
      if (!pf) {
        err << "serve-worker: cannot write port file '" << options.port_file
            << "'\n";
        ::close(listen_fd);
        return 1;
      }
    }
    if (std::rename(tmp.c_str(), options.port_file.c_str()) != 0) {
      err << "serve-worker: cannot move port file into place: "
          << std::strerror(errno) << "\n";
      ::close(listen_fd);
      return 1;
    }
  }

  while (!(options.cancel && options.cancel->cancelled())) {
    util::IoStatus st = util::IoStatus::kOk;
    const int fd = util::accept_timeout(listen_fd, 0.1, &st);
    if (fd < 0) {
      if (st == util::IoStatus::kError) {
        err << "serve-worker: accept failed: " << std::strerror(errno)
            << "\n";
      }
      continue;
    }
    handle_connection(fd, options, err);
    ::close(fd);
    if (options.once) break;
  }
  ::close(listen_fd);
  out << "serve-worker: shutting down\n";
  return 0;
}

}  // namespace powerlim::robust
