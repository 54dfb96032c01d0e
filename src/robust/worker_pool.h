// The worker pool: process-isolated cap solves with crash containment
// and resource budgets, run on local fork workers and, optionally, on
// remote powerlimd endpoints (`solve` requests, serve/protocol.h) in one
// event loop.
//
// A cap sweep is embarrassingly parallel - one independent LP ladder
// per cap - but a serial in-process sweep dies whole when any single
// solve segfaults or OOMs. run_worker_pool() forks one child per task
// (up to `workers` in flight), runs the task's callback IN THE CHILD
// under optional setrlimit budgets (RLIMIT_AS memory, RLIMIT_CPU time),
// and ships the result back over a CRC-framed pipe (robust/wire.h).
// The parent supervises:
//
//   * clean exit + intact frame      -> result accepted
//   * signal death (SIGSEGV/SIGABRT) -> crash, contained
//   * allocator failure under the    -> resource-exhausted (workers
//     memory budget (kWorkerExitOom)    catch std::bad_alloc and exit
//                                       with this code)
//   * SIGXCPU (CPU budget)           -> resource-exhausted
//   * wall deadline overrun          -> SIGKILL by the parent, timed out
//   * clean exit, garbled frame      -> protocol error, treated as crash
//
// With remote endpoints, idle powerlimd sessions pull caps from the
// front of the queue and free local slots pull from the back; each
// remote attempt is one `solve` request carrying the trace, the cap,
// the cap deadline and the attempt number. A cap lost to disconnect,
// heartbeat silence, job timeout, corrupt frame, a shed or failed
// request, or a result the certificate gate rejects walks the
// reassignment ladder:
//
//   1. retried once on a *different* worker (never the endpoint that
//      just lost it),
//   2. then forced onto a local fork worker,
//   3. then settled failed.
//
// The attempt limit follows from the endpoint list: a local-only pool
// gives a cap its first spawn plus one retry (2 attempts); with remotes
// the ladder above allows 3. A cap that runs out surfaces as a
// classified WorkerTaskResult the caller degrades exactly like an
// exhausted ladder rung. Results stream to the caller via on_result in
// completion order, so journal appends land as caps finish and a crash
// of the *parent* loses at most the in-flight caps.
//
// Remote sessions connect with capped exponential backoff plus jitter;
// a peer that fails enough consecutive connects is declared dead and its
// pending caps drain to the survivors (and ultimately to local workers,
// so a pool with every remote dead completes exactly like a local one).
//
// The pool is task-agnostic (the callback returns a JournalEntry), so
// tests drive it with hostile children - allocate-forever, sleep-
// forever, abort mid-write - without touching the LP stack.
#pragma once

#include <sys/types.h>

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "robust/journal.h"
#include "robust/solve_driver.h"
#include "robust/status.h"
#include "serve/protocol.h"
#include "util/deadline.h"
#include "util/socket_io.h"

namespace powerlim::robust {

/// Exit code a worker uses for "my allocator failed under the memory
/// budget" (caught std::bad_alloc). Distinct from crash-class codes so
/// the parent can classify resource exhaustion without a signal.
inline constexpr int kWorkerExitOom = 86;
/// Exit code for any other exception escaping the task callback.
inline constexpr int kWorkerExitFailure = 87;

/// Per-worker resource budgets, applied in the child before the task
/// runs. Zero means unlimited.
struct WorkerLimits {
  /// RLIMIT_AS, MiB. Ignored under AddressSanitizer (ASan reserves TBs
  /// of shadow address space; an AS limit would kill every worker).
  long mem_mb = 0;
  /// RLIMIT_CPU, seconds (rounded up; hard limit adds 2 s of grace).
  double cpu_seconds = 0.0;
  /// Parent-enforced wall budget per spawn, seconds: a worker alive
  /// past it is SIGKILLed and the attempt classified kTimedOut.
  double wall_seconds = 0.0;
};

/// How one task finally settled (after any retry).
enum class WorkerOutcome {
  kOk,
  kCrashed,            // signal death / unexpected exit / garbled frame
  kResourceExhausted,  // allocator failure or SIGXCPU under a budget
  kTimedOut,           // parent wall deadline killed it
  kSkipped,            // pool interrupted before the task ran
};

const char* to_string(WorkerOutcome outcome);

/// Maps a terminal (non-kOk) outcome onto the sweep taxonomy.
StatusCode status_code_for(WorkerOutcome outcome);

/// What a task's child ships back: the result entry as an 'R' frame
/// and, when non-empty, the solution artifact (core::write_schedule
/// text) as an 'S' frame after it - the proof a powerlimd solve must
/// carry for the scheduler's certificate gate. Tasks that ship no
/// artifact return a bare JournalEntry.
struct WorkerTaskOutput {
  WorkerTaskOutput(JournalEntry e, std::string solution = {})
      : entry(std::move(e)), solution_text(std::move(solution)) {}
  JournalEntry entry;
  std::string solution_text;
};

/// The task body, run in the forked child. `attempt` is the number of
/// attempts the cap already lost (0 for the first spawn). Throwing
/// std::bad_alloc exits with kWorkerExitOom, any other exception with
/// kWorkerExitFailure.
using WorkerTask = std::function<WorkerTaskOutput(int attempt)>;

struct WorkerTaskSpec {
  /// Task identity in logs and results (the cap being solved).
  double job_cap_watts = 0.0;
  WorkerTask run;
};

/// One settled task.
struct WorkerTaskResult {
  WorkerOutcome outcome = WorkerOutcome::kSkipped;
  /// Valid when outcome == kOk.
  JournalEntry entry;
  /// Attempts consumed (1 = clean first try).
  int spawns = 0;
  /// Peak RSS across this task's local spawns, KiB (wait4 rusage).
  long peak_rss_kb = 0;
  /// Parent-observed wall time across this task's attempts, ms.
  double wall_ms = 0.0;
  /// Human-readable classification of the last failure ("signal 6
  /// (SIGABRT)", "exit 86 (allocator failure)", ...); empty when clean.
  std::string detail;
  /// Where the cap settled and how many attempts it lost first; the
  /// caller splices it into the report when the pool had remotes.
  TransportTelemetry transport;
};

/// Pool-wide telemetry, aggregated into RunReport/CLI output. The
/// remote_* / certificate fields stay zero for purely local pools.
struct WorkerPoolStats {
  int tasks = 0;
  int spawned = 0;
  int clean = 0;
  int crashes = 0;
  int resource_exhausted = 0;
  int timeouts = 0;
  int retries = 0;
  long max_peak_rss_kb = 0;
  /// Caps settled by a remote powerlimd.
  int remote_clean = 0;
  /// Remote attempts lost to disconnect / timeout / corrupt frame /
  /// shed or failed request / rejected result.
  int remote_failures = 0;
  /// Remote results rejected by the local certificate gate.
  int certificate_rejects = 0;
};

/// Byzantine gate: invoked for every remote result with its 'S'
/// solution artifact (empty when none arrived) before acceptance. A
/// non-ok Status rejects the result - classified like a corrupt frame,
/// so the cap walks the reassignment ladder.
using RemoteResultGate =
    std::function<Status(const JournalEntry& entry,
                         const std::string& solution_text)>;

/// The remote half of a pool. Every field but `remotes` is ignored
/// while `remotes` is empty.
struct RemoteWorkerOptions {
  /// powerlimd endpoints; empty runs a local-only pool.
  std::vector<util::Endpoint> remotes;
  /// The `solve` request every remote attempt sends: kind "solve", the
  /// cap deadline as deadline_ms, and the trace. Each dispatch fills in
  /// its own id, cap and attempt.
  serve::ServeRequest request;
  /// Re-verifies each remote result; empty accepts as reported.
  RemoteResultGate gate;
  /// Heartbeat silence that declares a busy peer dead, ms.
  double heartbeat_timeout_ms = 2000.0;
  /// Per-job wall ceiling on a remote attempt, ms (0 = none; heartbeat
  /// supervision still polices liveness).
  double job_timeout_ms = 0.0;
};

/// Wall budget of one connect attempt to a remote endpoint, ms.
inline constexpr double kConnectTimeoutMs = 1000.0;
/// Capped exponential backoff between connect attempts, ms, with
/// deterministic jitter in [0.5, 1.5).
inline constexpr double kBackoffInitialMs = 25.0;
inline constexpr double kBackoffMaxMs = 1000.0;
/// Consecutive connect failures after which an endpoint is dead.
inline constexpr int kMaxConnectFailures = 4;

struct WorkerPoolOptions {
  /// Max local children in flight. A local-only pool clamps it to >= 1;
  /// with remotes, 0 keeps local workers for the ladder's forced-local
  /// rung and for a pool whose remotes all died.
  int workers = 2;
  WorkerLimits limits;
  RemoteWorkerOptions remote;
};

struct WorkerPoolResult {
  /// One result per task, in task order (not completion order).
  std::vector<WorkerTaskResult> results;
  WorkerPoolStats stats;
  /// True when the deadline/cancel stopped the pool early; unfinished
  /// tasks are kSkipped, in-flight workers were SIGKILLed, and remote
  /// sessions were closed.
  bool interrupted = false;
  util::StopReason stop = util::StopReason::kNone;
};

/// Runs every task on local fork workers and the configured remotes.
/// `on_result` (optional) fires in the parent as each task settles, in
/// completion order - the journaling hook. `deadline` is checked
/// between dispatches and enforced on in-flight workers.
WorkerPoolResult run_worker_pool(
    const std::vector<WorkerTaskSpec>& tasks,
    const WorkerPoolOptions& options, const util::Deadline& deadline = {},
    const std::function<void(const WorkerTaskResult&, std::size_t)>&
        on_result = {});

// --- building blocks shared with powerlimd's solve children ---

/// What one worker *attempt* came back as, before retry policy.
struct WorkerAttemptVerdict {
  WorkerOutcome outcome = WorkerOutcome::kCrashed;
  /// Valid when outcome == kOk.
  JournalEntry entry;
  /// The optional 'S' frame shipped after the result (see
  /// WorkerTaskOutput); empty when the task shipped none.
  std::string solution_text;
  std::string detail;
};

/// Classifies one finished worker attempt from its wait() status and the
/// bytes it wrote before EOF. Accepts one 'R' result frame, optionally
/// followed by one 'S' solution frame; anything else on a clean exit is
/// a protocol error (kCrashed). `deadline_killed` marks a worker the
/// supervisor SIGKILLed for overrunning its wall budget.
WorkerAttemptVerdict classify_worker_exit(bool deadline_killed,
                                          int wait_status,
                                          const std::string& pipe_bytes,
                                          double expected_cap);

/// One forked worker (pid + the read end of its result pipe).
struct SpawnedWorker {
  pid_t pid = -1;
  int read_fd = -1;
};

/// Forks one worker for `spec` at `attempt` under `limits`. The child
/// closes every fd in `extra_close_fds` (sibling pipes, sockets - a
/// child holding a session socket open would suppress the peer's EOF),
/// runs the task, ships the framed result, and _exit()s. Returns false
/// on fork/pipe failure (errno preserved).
bool spawn_worker(const WorkerTaskSpec& spec, int attempt,
                  const WorkerLimits& limits, int worker_id,
                  const std::vector<int>& extra_close_fds,
                  SpawnedWorker* out);

}  // namespace powerlim::robust
