// powerlimd: the crash-safe, overload-tolerant bound/sweep daemon
// (tentpole of the service-robustness work).
//
// `powerlim serve` turns the resilient sweep stack into a long-running
// service: clients connect over TCP ("powerlimd v1", serve/protocol.h),
// submit bound/sweep requests, and get per-cap rows streamed back as
// they settle. The daemon is built on three invariants:
//
//   * Admission control, not collapse. Requests wait in a bounded queue
//     (--max-queue) with at most --max-active executing; a full queue
//     answers `overloaded` immediately instead of accepting work it
//     cannot finish, a queued request whose deadline passes is shed
//     before it wastes an executor, and a slow or stalled client can
//     only stall *its own* connection (per-connection write buffers
//     with progress timeouts), never the accept loop or other clients.
//
//   * Journal-first durability. Every admitted request is journaled as
//     a `Q` intent (per-trace journal under --state-dir) *before* its
//     first solve, and every settled cap as an `R` record before the
//     row is replied. A daemon killed mid-request (SIGKILL included)
//     restarts with `--resume` and finishes exactly the owed caps -
//     already-proven caps are served from the journal, never re-solved.
//     The journals are byte-compatible with offline `powerlim sweep
//     --journal` files, and a reply row is the journal record's bytes.
//
//   * Fault degradation over refusal. Each bound/sweep request runs in
//     a forked executor wrapping robust::resilient_sweep, so worker
//     crashes, OOMs, hangs and remote network faults walk the existing
//     retry/degradation ladder; if the executor itself dies it is
//     re-forked once for the unsettled caps, and a second death
//     degrades those caps to the Static-policy bound - the client
//     still gets a row per cap.
//
// The same listener serves `solve` requests, one cap each, from the
// worker pool of a remote sweep (`sweep --remote`, robust/worker_pool.h).
// A solve is never journaled and never answered from a journal: it waits
// in the same admission queue, then runs in one forked child under the
// --worker-mem-mb / --worker-cpu-s budgets and a wall budget of its cap
// deadline plus 2 s, with heartbeats to the client while it is queued or
// running. The poll loop supervises the child like an executor; a child
// that dies is answered with its failure class, never re-forked or
// degraded - the scheduler's reassignment ladder owns the retry. With a
// ScopedFaultPlan installed, the plan's net-* fault injures solve
// replies (worker side) as well as the executors' own remote sessions.
//
// Lifecycle: SIGTERM (via ServeOptions.cancel) drains - accepts stop,
// queued requests are shed as `overloaded` (reason "draining"), active
// executors finish, then the daemon exits 0. SIGHUP (via
// ServeOptions.reopen_flag) closes and reopens the journals of active
// requests. The daemon itself is single-threaded (one poll loop);
// parallelism lives in the forked executors and their worker pools.
//
// High availability (serve/repl.h): a primary streams its journals to
// warm standbys (`--standby-of HOST:PORT`) over the same port and
// heartbeats them every --repl-heartbeat-ms. A standby serves repeat
// queries whose caps are all proven in its replica journals and sheds
// everything else (reason "standby"); it becomes the primary on an
// operator `powerlim promote` or, with --promote-after-ms, on its own
// once the primary has been silent that long - either way by bumping
// the failover epoch, persisting it, and stamping it into every
// journal. A deposed primary that observes a higher epoch (on the
// replication link or fenced out of its own journals) drains and exits
// kExitFenced instead of racing the promoted standby.
#pragma once

#include <csignal>
#include <iosfwd>
#include <string>
#include <vector>

#include "machine/machine.h"
#include "machine/power_model.h"
#include "util/deadline.h"

namespace powerlim::serve {

struct ServeOptions {
  /// host:port to listen on (port 0 picks an ephemeral port).
  std::string listen = "127.0.0.1:0";
  /// When set, the bound port is written here (atomic rename), so tests
  /// and scripts can start the daemon on port 0 and discover the port.
  std::string port_file;
  /// Directory for per-trace journals (`sweep-<hash>.journal`) and
  /// their trace snapshots (`trace-<hash>.trace`). Created if absent.
  std::string state_dir = "powerlimd-state";
  /// Scan state_dir on startup and finish every journaled request
  /// intent whose caps lack standing records (the post-SIGKILL path).
  bool resume = false;

  /// Admitted-but-not-executing ceiling; beyond it requests are shed
  /// with `overloaded` (reason "queue-full").
  int max_queue = 16;
  /// Concurrently executing requests (forked executors).
  int max_active = 1;

  /// Executor solve topology, forwarded to ResilientSweepOptions. The
  /// memory and CPU budgets also bound every solve child; `remotes` are
  /// other powerlimd endpoints.
  int workers = 1;
  long worker_mem_mb = 0;
  double worker_cpu_s = 0.0;
  std::vector<std::string> remotes;
  double remote_heartbeat_ms = 0.0;
  /// Per-cap wall budget inside the executor, ms (0 = unlimited).
  double cap_deadline_ms = 0.0;

  /// Deadline applied to requests that do not carry one, ms (0 = none).
  double default_deadline_ms = 0.0;
  /// Ceiling clamped onto every request's deadline, ms (0 = no ceiling).
  double max_deadline_ms = 0.0;

  /// A connection that makes no handshake, or whose pending output makes
  /// no progress, for this long is dropped (slow-client containment).
  double io_timeout_s = 10.0;
  /// Idle (handshaken, nothing in flight) connections are reaped after
  /// this long.
  double idle_timeout_s = 300.0;

  /// SIGTERM hook: when this token trips, the daemon drains and exits.
  const util::CancelToken* cancel = nullptr;
  /// SIGHUP hook: when nonzero, journals of active requests are closed
  /// and reopened, and the flag is reset. Must be async-signal-safe to
  /// set (it is a plain sig_atomic_t the handler stores 1 into).
  volatile std::sig_atomic_t* reopen_flag = nullptr;

  /// Exit after this many requests have finished (0 = run forever).
  /// Test hook.
  long max_requests = 0;

  /// Warm-standby mode: replicate from this "host:port" primary instead
  /// of executing work. Empty = primary.
  std::string standby_of;
  /// Standby only: auto-promote once the primary has been silent this
  /// long, ms (0 = promote only on operator command).
  double promote_after_ms = 0.0;
  /// Primary only: heartbeat/stream-reconciliation cadence toward
  /// connected standbys, ms.
  double repl_heartbeat_ms = 250.0;
};

/// serve() exit code when the daemon was *fenced*: it observed a higher
/// failover epoch (a standby was promoted past it) and refused to keep
/// writing. Distinct from 0/1 so supervisors restart it as a standby
/// instead of looping it as a primary.
inline constexpr int kExitFenced = 76;

/// Runs the daemon until drained (SIGTERM) or max_requests. Returns 0
/// on a clean drain, 1 on startup failure (bad listen address, port in
/// use past the retry budget, unusable state_dir). Progress goes to
/// `out`, errors to `err`. Install a ScopedFaultPlan before calling to
/// inject faults into every executor (they inherit it across fork).
int serve(const ServeOptions& options, const machine::PowerModel& model,
          const machine::ClusterSpec& cluster, std::ostream& out,
          std::ostream& err);

}  // namespace powerlim::serve
