#include "robust/worker_pool.h"

#include <poll.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstring>
#include <deque>
#include <new>
#include <optional>
#include <string>
#include <thread>
#include <utility>

#include "robust/fault_injection.h"
#include "robust/wire.h"
#include "util/log.h"
#include "util/posix_io.h"
#include "util/rng.h"

// RLIMIT_AS under AddressSanitizer kills every worker at startup (ASan
// reserves terabytes of shadow address space), so memory budgets are
// compiled out of sanitizer builds.
#if defined(__SANITIZE_ADDRESS__)
#define POWERLIM_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define POWERLIM_ASAN 1
#endif
#endif
#ifndef POWERLIM_ASAN
#define POWERLIM_ASAN 0
#endif

namespace powerlim::robust {

namespace {

using Clock = std::chrono::steady_clock;

double ms_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

void sleep_ms(double ms) {
  std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(ms));
}

/// Applies the setrlimit budgets in the current (child) process. No-op
/// for zero budgets; RLIMIT_AS is compiled out under AddressSanitizer.
void apply_worker_limits(const WorkerLimits& limits) {
  if (limits.mem_mb > 0 && !POWERLIM_ASAN) {
    const rlim_t bytes =
        static_cast<rlim_t>(limits.mem_mb) * 1024u * 1024u;
    struct rlimit r = {bytes, bytes};
    (void)::setrlimit(RLIMIT_AS, &r);
  }
  if (limits.cpu_seconds > 0.0) {
    const rlim_t soft =
        static_cast<rlim_t>(std::ceil(limits.cpu_seconds));
    struct rlimit r = {soft, soft + 2};
    (void)::setrlimit(RLIMIT_CPU, &r);
  }
}

[[noreturn]] void child_run(int write_fd, const WorkerTaskSpec& spec,
                            int attempt, const WorkerLimits& limits,
                            int worker_id) {
  util::set_log_worker_id(worker_id);
  apply_worker_limits(limits);
  std::optional<WorkerTaskOutput> output;
  try {
    output.emplace(spec.run(attempt));
  } catch (const std::bad_alloc&) {
    _exit(kWorkerExitOom);
  } catch (...) {
    _exit(kWorkerExitFailure);
  }
  Status st =
      write_wire_frame(write_fd, 'R', serialize_journal_entry(output->entry));
  if (st.ok() && !output->solution_text.empty()) {
    st = write_wire_frame(write_fd, 'S', output->solution_text);
  }
  _exit(st.ok() ? 0 : kWorkerExitFailure);
}

std::string signal_detail(int sig) {
  std::string out = "signal " + std::to_string(sig);
  const char* name = ::strsignal(sig);
  if (name != nullptr) {
    out += " (";
    out += name;
    out += ")";
  }
  return out;
}

}  // namespace

WorkerAttemptVerdict classify_worker_exit(bool deadline_killed,
                                          int wait_status,
                                          const std::string& pipe_bytes,
                                          double expected_cap) {
  WorkerAttemptVerdict v;
  if (deadline_killed) {
    v.outcome = WorkerOutcome::kTimedOut;
    v.detail = "worker exceeded its wall budget and was SIGKILLed";
    return v;
  }
  if (WIFSIGNALED(wait_status)) {
    const int sig = WTERMSIG(wait_status);
    if (sig == SIGXCPU) {
      v.outcome = WorkerOutcome::kResourceExhausted;
      v.detail = "CPU budget exhausted (SIGXCPU)";
    } else {
      v.outcome = WorkerOutcome::kCrashed;
      v.detail = "worker died on " + signal_detail(sig);
    }
    return v;
  }
  const int code = WIFEXITED(wait_status) ? WEXITSTATUS(wait_status) : -1;
  if (code == kWorkerExitOom) {
    v.outcome = WorkerOutcome::kResourceExhausted;
    v.detail = "allocator failure under the memory budget (exit " +
               std::to_string(kWorkerExitOom) + ")";
    return v;
  }
  if (code != 0) {
    v.outcome = WorkerOutcome::kCrashed;
    v.detail = "worker exited with code " + std::to_string(code);
    return v;
  }
  std::vector<WireFrame> frames;
  const WireDecode decode = decode_wire_frames(pipe_bytes, &frames);
  const bool shape_ok =
      decode == WireDecode::kOk && !frames.empty() && frames[0].tag == 'R' &&
      frames.size() <= 2 && (frames.size() < 2 || frames[1].tag == 'S');
  if (!shape_ok || !parse_journal_entry(frames[0].payload, &v.entry)) {
    v.outcome = WorkerOutcome::kCrashed;
    v.detail = std::string("clean exit but unusable result frame (") +
               to_string(pipe_bytes.empty() ? WireDecode::kEmpty : decode) +
               ")";
    return v;
  }
  if (v.entry.job_cap_watts != expected_cap) {
    v.outcome = WorkerOutcome::kCrashed;
    v.detail = "result frame answers a different cap";
    return v;
  }
  if (frames.size() == 2) v.solution_text = frames[1].payload;
  v.outcome = WorkerOutcome::kOk;
  return v;
}

bool spawn_worker(const WorkerTaskSpec& spec, int attempt,
                  const WorkerLimits& limits, int worker_id,
                  const std::vector<int>& extra_close_fds,
                  SpawnedWorker* out) {
  int fds[2];
  if (::pipe(fds) != 0) return false;
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    return false;
  }
  if (pid == 0) {
    ::close(fds[0]);
    for (int fd : extra_close_fds) ::close(fd);
    child_run(fds[1], spec, attempt, limits, worker_id);
  }
  ::close(fds[1]);
  out->pid = pid;
  out->read_fd = fds[0];
  return true;
}

const char* to_string(WorkerOutcome outcome) {
  switch (outcome) {
    case WorkerOutcome::kOk:
      return "ok";
    case WorkerOutcome::kCrashed:
      return "worker-crashed";
    case WorkerOutcome::kResourceExhausted:
      return "resource-exhausted";
    case WorkerOutcome::kTimedOut:
      return "timed-out";
    case WorkerOutcome::kSkipped:
      return "skipped";
  }
  return "?";
}

StatusCode status_code_for(WorkerOutcome outcome) {
  switch (outcome) {
    case WorkerOutcome::kOk:
      return StatusCode::kOk;
    case WorkerOutcome::kCrashed:
      return StatusCode::kWorkerCrashed;
    case WorkerOutcome::kResourceExhausted:
      return StatusCode::kResourceExhausted;
    case WorkerOutcome::kTimedOut:
      return StatusCode::kDeadlineExceeded;
    case WorkerOutcome::kSkipped:
      return StatusCode::kCancelled;
  }
  return StatusCode::kInternal;
}

namespace {

/// Per-task progress through the reassignment ladder.
struct TaskState {
  int failures = 0;
  /// Session indices this cap already failed on (never retried there).
  std::vector<std::size_t> failed_remotes;
  bool settled = false;
  double wall_ms = 0.0;
  long peak_rss_kb = 0;
  WorkerOutcome last_outcome = WorkerOutcome::kCrashed;
  std::string last_detail;
};

/// Lost attempts that settle a cap failed: a local-only pool allows the
/// first spawn plus one retry; the remote ladder allows attempt 0
/// anywhere, one retry on a different worker, then forced local.
constexpr int kLocalMaxFailures = 2;
constexpr int kRemoteMaxFailures = 3;
constexpr int kForceLocalAfterFailures = 2;

struct Session {
  util::Endpoint endpoint;
  std::string name;
  util::Rng rng{1};

  enum class State { kBackoff, kHandshaking, kIdle, kBusy, kDead };
  State state = State::kBackoff;
  int fd = -1;
  FrameStream stream;
  Clock::time_point retry_at = Clock::now();
  int connect_failures = 0;
  double backoff_ms_total = 0.0;

  // In-flight solve request state (kBusy).
  std::size_t task = 0;
  std::string request_id;
  Clock::time_point job_start;
  Clock::time_point last_heard;
  int heartbeat_misses = 0;
  bool miss_flagged = false;
  bool have_entry = false;
  JournalEntry entry;
  /// The 'S' artifact of the in-flight request (empty until it lands).
  std::string solution;
  // Scheduler-side fault injection for this job.
  bool inj_stall = false;
  bool inj_corrupt = false;
  bool inj_slow = false;
  bool corrupt_done = false;
  double slow_budget_ms = 0.0;
};

struct LocalWorker {
  pid_t pid = -1;
  int read_fd = -1;
  std::size_t task = 0;
  Clock::time_point start;
  bool deadline_killed = false;
  std::string buffer;
};

WorkerOutcome outcome_from_wire_name(const std::string& name) {
  if (name == "resource-exhausted") return WorkerOutcome::kResourceExhausted;
  if (name == "timed-out") return WorkerOutcome::kTimedOut;
  return WorkerOutcome::kCrashed;
}

}  // namespace

WorkerPoolResult run_worker_pool(
    const std::vector<WorkerTaskSpec>& tasks,
    const WorkerPoolOptions& options, const util::Deadline& deadline,
    const std::function<void(const WorkerTaskResult&, std::size_t)>&
        on_result) {
  const RemoteWorkerOptions& remote = options.remote;
  if (!remote.remotes.empty()) util::ignore_sigpipe();
  const int max_failures =
      remote.remotes.empty() ? kLocalMaxFailures : kRemoteMaxFailures;

  WorkerPoolResult out;
  out.results.resize(tasks.size());
  out.stats.tasks = static_cast<int>(tasks.size());

  const std::size_t max_local =
      static_cast<std::size_t>(std::max(0, options.workers));

  std::vector<TaskState> states(tasks.size());
  std::deque<std::size_t> pending;
  for (std::size_t i = 0; i < tasks.size(); ++i) pending.push_back(i);

  std::vector<Session> sessions;
  sessions.reserve(remote.remotes.size());
  for (std::size_t i = 0; i < remote.remotes.size(); ++i) {
    Session s;
    s.endpoint = remote.remotes[i];
    s.name = util::to_string(remote.remotes[i]);
    s.rng = util::Rng(1 + 0x9e3779b9u * (i + 1));
    sessions.push_back(std::move(s));
  }

  std::vector<LocalWorker> locals;
  int worker_seq = 0;
  std::size_t settled = 0;

  const auto count_failure_stat = [&](WorkerOutcome o) {
    switch (o) {
      case WorkerOutcome::kCrashed:
        ++out.stats.crashes;
        break;
      case WorkerOutcome::kResourceExhausted:
        ++out.stats.resource_exhausted;
        break;
      case WorkerOutcome::kTimedOut:
        ++out.stats.timeouts;
        break;
      default:
        break;
    }
  };

  const auto settle_failed = [&](std::size_t t) {
    TaskState& ts = states[t];
    WorkerTaskResult& r = out.results[t];
    r.outcome = ts.last_outcome;
    r.spawns = ts.failures;
    r.peak_rss_kb = ts.peak_rss_kb;
    r.wall_ms = ts.wall_ms;
    r.detail = ts.last_detail;
    r.transport.retries = ts.failures;
    ts.settled = true;
    ++settled;
    if (on_result) on_result(r, t);
  };

  const auto settle_ok = [&](std::size_t t, JournalEntry entry,
                             const Session* via) {
    TaskState& ts = states[t];
    WorkerTaskResult& r = out.results[t];
    r.outcome = WorkerOutcome::kOk;
    r.entry = std::move(entry);
    r.spawns = ts.failures + 1;
    r.peak_rss_kb = ts.peak_rss_kb;
    r.wall_ms = ts.wall_ms;
    r.detail.clear();
    r.transport.retries = ts.failures;
    ts.settled = true;
    ++settled;
    ++out.stats.clean;
    if (via != nullptr) {
      r.transport.remote = true;
      r.transport.endpoint = via->name;
      r.transport.backoff_ms = via->backoff_ms_total;
      r.transport.heartbeat_misses = via->heartbeat_misses;
      ++out.stats.remote_clean;
    }
    if (on_result) on_result(r, t);
  };

  /// One lost attempt: charge the task, remember where it failed, and
  /// requeue (front, so retries settle promptly) or settle failed.
  const auto fail_attempt = [&](std::size_t t, const Session* via,
                                WorkerOutcome outcome,
                                const std::string& detail) {
    TaskState& ts = states[t];
    ++ts.failures;
    ts.last_outcome = outcome;
    ts.last_detail = detail;
    count_failure_stat(outcome);
    if (via != nullptr) {
      ++out.stats.remote_failures;
      ts.failed_remotes.push_back(
          static_cast<std::size_t>(via - sessions.data()));
    }
    util::log_warn() << "cap " << tasks[t].job_cap_watts << " attempt "
                     << ts.failures << "/" << max_failures << " lost"
                     << (via ? " on " + via->name : std::string(" locally"))
                     << ": " << detail;
    if (ts.failures >= max_failures) {
      settle_failed(t);
    } else {
      ++out.stats.retries;
      pending.push_front(t);
    }
  };

  const auto schedule_backoff = [&](Session& s) {
    ++s.connect_failures;
    if (s.connect_failures >= remote.max_connect_failures) {
      util::log_warn() << "remote " << s.name << " declared dead after "
                       << s.connect_failures << " consecutive failures";
      s.state = Session::State::kDead;
      return;
    }
    const int doublings = std::min(s.connect_failures - 1, 20);
    const double base =
        std::min(remote.backoff_max_ms,
                 remote.backoff_initial_ms *
                     static_cast<double>(1 << doublings));
    const double delay = base * s.rng.uniform(0.5, 1.5);
    s.backoff_ms_total += delay;
    s.retry_at = Clock::now() + std::chrono::microseconds(
                                    static_cast<long>(delay * 1000.0));
    s.state = Session::State::kBackoff;
  };

  const auto close_session = [&](Session& s, bool to_backoff) {
    if (s.fd >= 0) {
      ::close(s.fd);
      s.fd = -1;
    }
    s.stream = FrameStream();
    s.have_entry = false;
    s.solution.clear();
    if (to_backoff && s.state != Session::State::kDead) {
      schedule_backoff(s);
    }
  };

  /// The busy session lost its job (disconnect / silence / poison):
  /// charge the attempt and recycle the connection through backoff.
  const auto fail_busy_session = [&](Session& s, WorkerOutcome outcome,
                                     const std::string& detail) {
    const std::size_t t = s.task;
    s.state = Session::State::kBackoff;  // close_session keeps non-dead state
    close_session(s, true);
    if (!states[t].settled) {
      states[t].wall_ms += ms_between(s.job_start, Clock::now());
      fail_attempt(t, &s, outcome, detail);
    }
  };

  const auto session_eligible = [&](const Session& s, std::size_t t) {
    const TaskState& ts = states[t];
    if (ts.failures >= kForceLocalAfterFailures) return false;
    const std::size_t idx = static_cast<std::size_t>(&s - sessions.data());
    for (std::size_t f : ts.failed_remotes) {
      if (f == idx) return false;
    }
    return true;
  };

  const auto all_remotes_dead = [&] {
    for (const Session& s : sessions) {
      if (s.state != Session::State::kDead) return false;
    }
    return true;
  };

  // A cap is forced local when its failure count says so, or when no
  // live remote may take it (every survivor already lost it): with one
  // remote endpoint, "retry on a different worker" collapses straight
  // to the local rung instead of waiting for a peer that cannot exist.
  const auto forced_local = [&](std::size_t t) {
    if (states[t].failures >= kForceLocalAfterFailures) return true;
    if (states[t].failures == 0) return false;
    for (const Session& s : sessions) {
      if (s.state != Session::State::kDead && session_eligible(s, t)) {
        return false;
      }
    }
    return true;
  };

  bool interrupted = false;
  util::StopReason stop = util::StopReason::kNone;

  while (settled < tasks.size()) {
    stop = deadline.stop_reason();
    if (stop != util::StopReason::kNone) {
      interrupted = true;
      break;
    }
    const Clock::time_point now = Clock::now();

    // --- session lifecycle: connect / handshake / liveness ---
    for (Session& s : sessions) {
      switch (s.state) {
        case Session::State::kBackoff: {
          if (now < s.retry_at) break;
          std::string cerr_msg;
          const int fd = util::connect_timeout(
              s.endpoint, remote.connect_timeout_ms / 1000.0, &cerr_msg);
          if (fd < 0) {
            schedule_backoff(s);
            break;
          }
          const std::string hello =
              encode_wire_frame(serve::kTagHello, serve::encode_hello());
          if (util::send_all(fd, hello.data(), hello.size(), 10.0) !=
              util::IoStatus::kOk) {
            ::close(fd);
            schedule_backoff(s);
            break;
          }
          s.fd = fd;
          s.stream = FrameStream();
          s.state = Session::State::kHandshaking;
          s.last_heard = now;
          break;
        }
        case Session::State::kHandshaking: {
          if (ms_between(s.last_heard, now) > remote.heartbeat_timeout_ms) {
            close_session(s, true);
          }
          break;
        }
        case Session::State::kBusy: {
          const double silence = ms_between(s.last_heard, now);
          if (!s.miss_flagged &&
              silence > remote.heartbeat_timeout_ms / 4.0) {
            ++s.heartbeat_misses;
            s.miss_flagged = true;
          }
          if (silence > remote.heartbeat_timeout_ms) {
            fail_busy_session(
                s, WorkerOutcome::kTimedOut,
                "no heartbeat from " + s.name + " for " +
                    std::to_string(static_cast<long>(silence)) +
                    " ms (dead peer)");
            break;
          }
          if (remote.job_timeout_ms > 0.0 &&
              ms_between(s.job_start, now) > remote.job_timeout_ms) {
            fail_busy_session(s, WorkerOutcome::kTimedOut,
                              "remote attempt on " + s.name +
                                  " overran its job timeout");
          }
          break;
        }
        default:
          break;
      }
    }

    // --- dispatch: idle remotes pull from the FRONT of the queue ---
    for (Session& s : sessions) {
      if (s.state != Session::State::kIdle || pending.empty()) continue;
      std::size_t pick = pending.size();
      for (std::size_t i = 0; i < pending.size(); ++i) {
        if (session_eligible(s, pending[i])) {
          pick = i;
          break;
        }
      }
      if (pick == pending.size()) continue;
      const std::size_t t = pending[pick];
      pending.erase(pending.begin() + static_cast<long>(pick));
      TaskState& ts = states[t];
      const double cap = tasks[t].job_cap_watts;

      const FaultPlan* plan = ScopedFaultPlan::active();
      const bool injured = plan && plan->net_fault != NetFault::kNone &&
                           plan->applies_to_cap(cap) &&
                           ts.failures < plan->net_fault_attempts;
      if (injured && plan->net_fault == NetFault::kDrop) {
        // Scheduler-side drop: lose the connection instead of the job.
        close_session(s, true);
        ++out.stats.spawned;
        fail_attempt(t, &s, WorkerOutcome::kCrashed,
                     "injected net-drop: connection lost before dispatch");
        continue;
      }
      serve::ServeRequest request = remote.request;
      request.id = "t" + std::to_string(t) + "a" + std::to_string(ts.failures);
      request.caps = {cap};
      request.attempt = ts.failures;
      const std::string payload = serve::encode_request(request);
      const std::string frame =
          encode_wire_frame(serve::kTagRequest, payload);
      if (payload.empty() || frame.empty() ||
          util::send_all(s.fd, frame.data(), frame.size(), 5.0) !=
              util::IoStatus::kOk) {
        close_session(s, true);
        fail_attempt(t, &s, WorkerOutcome::kCrashed,
                     "connection to " + s.name +
                         " lost sending the solve request");
        continue;
      }
      s.state = Session::State::kBusy;
      s.task = t;
      s.request_id = request.id;
      s.job_start = s.last_heard = Clock::now();
      s.heartbeat_misses = 0;
      s.miss_flagged = false;
      s.have_entry = false;
      s.solution.clear();
      s.inj_stall = injured && plan->net_fault == NetFault::kStall;
      s.inj_corrupt = injured && plan->net_fault == NetFault::kCorrupt;
      s.inj_slow = injured && plan->net_fault == NetFault::kSlow;
      s.corrupt_done = false;
      s.slow_budget_ms = 500.0;
      ++out.stats.spawned;
    }

    // --- dispatch: free local slots pull from the BACK (and any cap
    // the ladder forced local, from wherever it sits) ---
    while (!pending.empty()) {
      std::size_t pick = pending.size();
      for (std::size_t i = 0; i < pending.size(); ++i) {
        if (forced_local(pending[i])) {
          pick = i;
          break;
        }
      }
      const bool forced = pick != pending.size();
      // workers == 0 disables ordinary local mixing, but the ladder's
      // forced-local rung (and a pool whose remotes all died, or that
      // never had any) always has at least one slot - the sweep must
      // finish even with every peer gone.
      std::size_t slots = max_local;
      if (forced || all_remotes_dead()) {
        slots = std::max<std::size_t>(slots, 1);
      }
      if (locals.size() >= slots) break;
      if (!forced) {
        if (max_local == 0 && !all_remotes_dead()) break;
        pick = all_remotes_dead() ? 0 : pending.size() - 1;
      }
      const std::size_t t = pending[pick];
      pending.erase(pending.begin() + static_cast<long>(pick));
      TaskState& ts = states[t];

      std::vector<int> extra;
      for (const LocalWorker& w : locals) extra.push_back(w.read_fd);
      for (const Session& s : sessions) {
        if (s.fd >= 0) extra.push_back(s.fd);
      }
      SpawnedWorker sw;
      if (!spawn_worker(tasks[t], ts.failures, options.limits, worker_seq++,
                        extra, &sw)) {
        fail_attempt(t, nullptr, WorkerOutcome::kCrashed,
                     std::string("cannot spawn worker: ") +
                         std::strerror(errno));
        continue;
      }
      LocalWorker w;
      w.pid = sw.pid;
      w.read_fd = sw.read_fd;
      w.task = t;
      w.start = Clock::now();
      locals.push_back(std::move(w));
      ++out.stats.spawned;
    }

    // --- local wall budgets: a hung worker never produces POLLIN, so
    // the kill is what un-wedges the pool (EOF follows it) ---
    for (LocalWorker& w : locals) {
      if (options.limits.wall_seconds > 0.0 && !w.deadline_killed &&
          ms_between(w.start, now) > options.limits.wall_seconds * 1000.0) {
        ::kill(w.pid, SIGKILL);
        w.deadline_killed = true;
      }
    }

    // --- poll local pipes + live sockets ---
    std::vector<struct pollfd> pfds;
    std::vector<Session*> pfd_session;
    for (const LocalWorker& w : locals) {
      pfds.push_back({w.read_fd, POLLIN, 0});
      pfd_session.push_back(nullptr);
    }
    for (Session& s : sessions) {
      if (s.fd < 0) continue;
      pfds.push_back({s.fd, POLLIN, 0});
      pfd_session.push_back(&s);
    }
    if (pfds.empty()) {
      sleep_ms(10.0);
      continue;
    }
    const int ready = util::retry_eintr([&] {
      return ::poll(pfds.data(), static_cast<nfds_t>(pfds.size()), 20);
    });
    if (ready <= 0) continue;

    // --- local pipe events ---
    for (std::size_t i = 0; i < locals.size();) {
      LocalWorker& w = locals[i];
      bool finished = false;
      if (pfds[i].revents & (POLLIN | POLLHUP | POLLERR)) {
        char buf[4096];
        const ssize_t n = util::read_some(w.read_fd, buf, sizeof buf);
        if (n > 0) {
          w.buffer.append(buf, static_cast<std::size_t>(n));
        } else if (n == 0) {
          finished = true;
        }
      }
      if (!finished) {
        ++i;
        continue;
      }
      ::close(w.read_fd);
      int wait_status = 0;
      struct rusage ru {};
      util::retry_eintr([&] { return ::wait4(w.pid, &wait_status, 0, &ru); });
      const std::size_t t = w.task;
      TaskState& ts = states[t];
      ts.wall_ms += ms_between(w.start, Clock::now());
      ts.peak_rss_kb =
          std::max(ts.peak_rss_kb, static_cast<long>(ru.ru_maxrss));
      out.stats.max_peak_rss_kb =
          std::max(out.stats.max_peak_rss_kb, ts.peak_rss_kb);
      const WorkerAttemptVerdict v = classify_worker_exit(
          w.deadline_killed, wait_status, w.buffer, tasks[t].job_cap_watts);
      // Erase before settling so the pollfd indexing stays aligned on
      // the next loop iteration.
      locals.erase(locals.begin() + static_cast<long>(i));
      pfds.erase(pfds.begin() + static_cast<long>(i));
      pfd_session.erase(pfd_session.begin() + static_cast<long>(i));
      if (v.outcome == WorkerOutcome::kOk) {
        settle_ok(t, v.entry, nullptr);
      } else {
        fail_attempt(t, nullptr, v.outcome, v.detail);
      }
    }

    // --- socket events ---
    for (std::size_t i = locals.size(); i < pfds.size(); ++i) {
      Session* sp = pfd_session[i];
      if (sp == nullptr || sp->fd < 0) continue;
      Session& s = *sp;
      if (!(pfds[i].revents & (POLLIN | POLLHUP | POLLERR))) continue;
      std::string chunk;
      const util::IoStatus st = util::recv_some(s.fd, &chunk);
      if (st == util::IoStatus::kDisconnected ||
          st == util::IoStatus::kError) {
        if (s.state == Session::State::kBusy) {
          fail_busy_session(s, WorkerOutcome::kCrashed,
                            "connection to " + s.name + " lost mid-job");
        } else {
          close_session(s, true);
        }
        continue;
      }
      if (chunk.empty()) continue;
      if (s.state == Session::State::kBusy && s.inj_stall) {
        // Scheduler-side stall: pretend nothing arrives. last_heard is
        // left alone so the dead-peer timer fires.
        continue;
      }
      if (s.state == Session::State::kBusy && s.inj_slow &&
          s.slow_budget_ms > 0.0) {
        sleep_ms(50.0);
        s.slow_budget_ms -= 50.0;
      }
      if (s.state == Session::State::kBusy && s.inj_corrupt &&
          !s.corrupt_done) {
        chunk[chunk.size() - 1] ^= 0x01;
        s.corrupt_done = true;
      }
      if (s.state == Session::State::kBusy && !s.miss_flagged &&
          ms_between(s.last_heard, Clock::now()) >
              remote.heartbeat_timeout_ms / 4.0) {
        // The frame arrived, but only after a whole silent interval: a
        // slow worker, recorded as a miss (vs a dead one, which never
        // resets the timer and trips the timeout above).
        ++s.heartbeat_misses;
      }
      s.last_heard = Clock::now();
      s.miss_flagged = false;
      s.stream.feed(chunk);

      WireFrame f;
      bool closed = false;
      while (!closed && s.stream.next(&f) == WireDecode::kOk) {
        if (f.tag == serve::kTagHelloAck) {
          if (s.state != Session::State::kHandshaking) continue;
          serve::HelloAck ack;
          if (serve::decode_hello_ack(f.payload, &ack) && ack.ok) {
            s.state = Session::State::kIdle;
            s.connect_failures = 0;
          } else {
            // A version skew will not heal with retries.
            util::log_warn() << "remote " << s.name
                             << " rejected the hello: "
                             << (ack.error.empty() ? f.payload : ack.error);
            s.state = Session::State::kDead;
            close_session(s, false);
            closed = true;
          }
          continue;
        }
        // Everything else answers the in-flight solve; heartbeats ('H')
        // only prove liveness, and last_heard is already updated.
        if (s.state != Session::State::kBusy) continue;
        const std::size_t t = s.task;
        std::string id;
        switch (f.tag) {
          case serve::kTagRow: {
            serve::ServeRow row;
            if (!serve::decode_row(f.payload, &row) ||
                row.id != s.request_id ||
                std::abs(row.entry.job_cap_watts -
                         tasks[t].job_cap_watts) > 1e-9) {
              fail_busy_session(s, WorkerOutcome::kCrashed,
                                "unusable result payload from " + s.name);
              closed = true;
              break;
            }
            s.entry = std::move(row.entry);
            s.have_entry = true;  // settles when the 'D' lands
            break;
          }
          case serve::kTagArtifact: {
            if (!s.have_entry ||
                !serve::decode_artifact(f.payload, &id, &s.solution) ||
                id != s.request_id) {
              fail_busy_session(s, WorkerOutcome::kCrashed,
                                "unexpected solution frame from " + s.name);
              closed = true;
            }
            break;
          }
          case serve::kTagDone: {
            serve::ServeDone done;
            if (!serve::decode_done(f.payload, &done) ||
                done.id != s.request_id) {
              fail_busy_session(s, WorkerOutcome::kCrashed,
                                "unusable done frame from " + s.name);
              closed = true;
              break;
            }
            s.state = Session::State::kIdle;
            states[t].wall_ms += ms_between(s.job_start, Clock::now());
            if (!s.have_entry) {
              fail_attempt(t, &s, WorkerOutcome::kCrashed,
                           "remote " + s.name +
                               " finished the solve without a result row");
            } else if (s.entry.verdict == StatusCode::kCancelled) {
              // The daemon's solve child was interrupted; the cap did
              // not really settle.
              fail_attempt(t, &s, WorkerOutcome::kCrashed,
                           "remote worker " + s.name +
                               " cancelled the attempt (shutting down)");
            } else if (const Status verdict =
                           remote.gate ? remote.gate(s.entry, s.solution)
                                       : Status::Ok();
                       !verdict.ok()) {
              ++out.stats.certificate_rejects;
              // The peer is lying but alive: keep the session for other
              // caps; this cap never returns to it.
              fail_attempt(t, &s, WorkerOutcome::kCrashed,
                           "remote result from " + s.name +
                               " rejected: " + verdict.to_string());
            } else {
              settle_ok(t, std::move(s.entry), &s);
            }
            s.have_entry = false;
            s.solution.clear();
            break;
          }
          case serve::kTagError: {
            std::string detail;
            if (!serve::decode_error(f.payload, &id, &detail) ||
                id != s.request_id) {
              fail_busy_session(s, WorkerOutcome::kCrashed,
                                "unusable error frame from " + s.name);
              closed = true;
              break;
            }
            s.state = Session::State::kIdle;
            states[t].wall_ms += ms_between(s.job_start, Clock::now());
            const std::size_t space = detail.find(' ');
            const WorkerOutcome o =
                outcome_from_wire_name(detail.substr(0, space));
            fail_attempt(t, &s, o,
                         "remote attempt on " + s.name + " failed: " +
                             (space == std::string::npos
                                  ? detail
                                  : detail.substr(space + 1)));
            break;
          }
          case serve::kTagOverloaded: {
            // Shed (queue full, draining): reconnect through backoff; a
            // daemon that is going away stops accepting and is declared
            // dead.
            serve::ServeOverloaded shed;
            const bool parsed = serve::decode_overloaded(f.payload, &shed);
            fail_busy_session(s, WorkerOutcome::kCrashed,
                              "remote " + s.name + " shed the solve" +
                                  (parsed ? " (" + shed.reason + "): " +
                                                shed.detail
                                          : std::string()));
            closed = true;
            break;
          }
          default:
            break;  // heartbeats and unknown tags
        }
      }
      if (!closed && s.stream.poisoned()) {
        if (s.state == Session::State::kBusy) {
          fail_busy_session(s, WorkerOutcome::kCrashed,
                            "wire-malformed from " + s.name + ": " +
                                s.stream.last_error());
        } else {
          close_session(s, true);
        }
      }
    }
  }

  // --- teardown ---
  if (interrupted) {
    for (LocalWorker& w : locals) {
      ::kill(w.pid, SIGKILL);
      int wait_status = 0;
      util::retry_eintr([&] { return ::waitpid(w.pid, &wait_status, 0); });
      ::close(w.read_fd);
      WorkerTaskResult& r = out.results[w.task];
      r.outcome = WorkerOutcome::kSkipped;
      r.detail = "pool interrupted mid-solve";
    }
    for (std::size_t t = 0; t < tasks.size(); ++t) {
      if (!states[t].settled &&
          out.results[t].outcome == WorkerOutcome::kSkipped &&
          out.results[t].detail.empty()) {
        out.results[t].detail = "pool interrupted before dispatch";
      }
    }
    out.interrupted = true;
    out.stop = stop;
  }
  // Closing the socket is the goodbye: powerlimd kills the solve child
  // of a connection that went away.
  for (Session& s : sessions) {
    if (s.fd >= 0) {
      ::close(s.fd);
      s.fd = -1;
    }
  }
  return out;
}

}  // namespace powerlim::robust
