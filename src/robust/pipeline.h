// Fail-soft wrappers for the pipeline's file-facing entry points, and
// the journaled cap sweep built on them.
//
// The lower layers report corrupt input with typed exceptions
// (dag::TraceParseError names file/line/token; schedule IO throws
// runtime_error). Sweep drivers and the CLI want Result<T> values they
// can branch on instead, with every failure classified into the
// robust::StatusCode taxonomy - these adapters do exactly that mapping.
//
// resilient_sweep() has two paths over one journal: serial in-process
// solves (workers == 1, no remotes), and the worker pool
// (robust/worker_pool.h) for everything else - local fork workers,
// remote powerlimd endpoints, or both.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "core/schedule_io.h"
#include "dag/graph.h"
#include "robust/journal.h"
#include "robust/solve_driver.h"
#include "robust/status.h"
#include "robust/worker_pool.h"
#include "util/deadline.h"

namespace powerlim::robust {

/// Loads a trace, mapping parse failures (with their file/line/token
/// provenance preserved in the message) and IO failures to kBadInput.
[[nodiscard]] Result<dag::TaskGraph> load_trace_checked(const std::string& path);

/// Loads a saved schedule; failures map to kBadInput. When `graph` is
/// given, also validates that the schedule matches it (edge counts).
[[nodiscard]] Result<core::SavedSchedule> load_schedule_checked(
    const std::string& path, const dag::TaskGraph* graph = nullptr);

/// One row of a (possibly resumed) sweep: the same shape whether the cap
/// was solved this run or recovered from the journal, so a resumed sweep
/// renders byte-identically to an uninterrupted one (report_json's
/// `result` object is identical; its `telemetry` is not). A row is the
/// journal record it is (or will be) stored as.
struct SweepRow : JournalEntry {
  /// True when the row came from the journal instead of a fresh solve.
  bool from_journal = false;
};

struct ResilientSweepOptions {
  SolveDriverOptions driver;
  /// Journal file; empty disables journaling (plain in-memory sweep).
  std::string journal_path;
  /// Skip caps with a standing journal record (requires journal_path).
  bool resume = false;
  /// Whole-sweep wall budget + cancellation. Checked between caps; the
  /// per-cap solves additionally observe it at pivot granularity (it is
  /// merged into each cap's supervision deadline). With workers > 1 the
  /// supervisor enforces it instead: expiry/cancel SIGKILLs in-flight
  /// workers and their caps resume next run.
  util::Deadline deadline;
  /// Process-isolated parallel solving. > 1 forks each cap's ladder into
  /// a supervised worker of the worker pool (at most `workers` in
  /// flight) with crash containment; a cap that loses every attempt the
  /// pool allows degrades to the Static-policy bound under a
  /// worker-crashed / resource-exhausted verdict. 1 (the default) with
  /// no remotes runs the serial in-process path; both paths solve every
  /// cap cold, so they report the same rows.
  int workers = 1;
  /// Per-worker RLIMIT_AS budget, MiB (0 = unlimited; ignored under
  /// AddressSanitizer).
  long worker_mem_mb = 0;
  /// Per-worker RLIMIT_CPU budget, seconds (0 = unlimited).
  double worker_cpu_s = 0.0;
  /// Remote powerlimd endpoints ("host:port"), each sent one `solve`
  /// request per remote attempt. Non-empty gives the worker pool its
  /// remote half (robust/worker_pool.h): remote sessions and up to
  /// `workers` local fork workers share one queue, every lost cap walks
  /// the reassignment ladder, each remote kOk result must pass the local
  /// certificate gate before it is journaled, and every report carries
  /// the pool's transport telemetry.
  std::vector<std::string> remotes;
  /// Heartbeat silence that declares a remote peer dead, ms (0 = the
  /// default in RemoteWorkerOptions).
  double remote_heartbeat_ms = 0.0;
  /// Streaming hook: called once per *fresh* row the moment it settles
  /// (journaled-resume rows are not replayed through it), after the row
  /// is journaled. The powerlimd executor uses this to ship each cap's
  /// result up its pipe while later caps still solve, so a client
  /// watching a long sweep sees rows trickle in instead of one burst.
  /// Must not throw; called from the sweep thread.
  std::function<void(const SweepRow&)> on_row;
};

struct ResilientSweepResult {
  /// One row per requested cap, in request order. Caps never reached
  /// (interrupted sweep) are absent.
  std::vector<SweepRow> rows;
  /// Journal recovery report (default-clean when journaling is off).
  RecoverySummary recovery;
  /// Caps solved this run / taken from the journal.
  int solved = 0;
  int resumed = 0;
  /// True when the sweep stopped early on cancellation or the sweep
  /// deadline; the journal holds every completed cap, so re-running
  /// with resume=true picks up exactly where this run stopped.
  bool interrupted = false;
  /// Why the sweep stopped early (kNone when it ran to completion).
  util::StopReason stop = util::StopReason::kNone;
  /// Worker-pool telemetry (all-zero for serial sweeps).
  WorkerPoolStats worker_stats;
};

/// Journaled, resumable cap sweep: one driver solve per cap, partial
/// results guaranteed (a failing cap degrades, it does not abort the
/// sweep). Every completed cap is durably journaled before the
/// next one starts; on resume=true, caps with a standing journal record
/// are skipped and those rows merged in request order with the fresh
/// ones; a cap whose only records are stale solves afresh. Returns a
/// Status only for journal-open failures (unwritable path); solve
/// failures degrade per-cap as usual and never fail the sweep.
[[nodiscard]] Result<ResilientSweepResult> resilient_sweep(
    const dag::TaskGraph& graph, const machine::PowerModel& model,
    const machine::ClusterSpec& cluster, const std::vector<double>& job_caps,
    const ResilientSweepOptions& options = {});

/// How an isolated worker (or daemon executor) died without shipping a
/// result for its cap.
struct WorkerFailure {
  /// Death classification (kWorkerCrashed / kResourceExhausted / ...).
  StatusCode outcome = StatusCode::kWorkerCrashed;
  /// Human-readable cause of the final spawn's death.
  std::string detail;
  /// Worker spawns the cap consumed before giving up.
  int spawns = 1;
  /// Telemetry (wall_ms / worker block): excluded from byte-identity.
  double wall_ms = 0.0;
  long peak_rss_kb = 0;
};

/// The journal entry an isolated worker child ships for `report`: the
/// report with its worker block stamped for `attempt` (the attempts the
/// cap already lost). Local pool workers and powerlimd's solve children
/// both build their result with it, so their reports match.
JournalEntry isolated_worker_entry(RunReport report, int attempt);

/// Synthesizes the degraded journal entry for a cap whose isolated
/// worker died without shipping a result: a RunReport with one
/// synthetic "worker" attempt describing the death and the
/// Static-policy fallback bound simulated in-process. Shared by the
/// worker pool's reassignment ladder and powerlimd's executor-crash
/// path, so a cap lost to a daemon executor crash degrades
/// byte-identically to one lost in an offline parallel sweep.
JournalEntry degraded_entry_for_failure(
    const dag::TaskGraph& graph, const machine::PowerModel& model,
    const machine::ClusterSpec& cluster, const SolveDriverOptions& driver_opt,
    double job_cap_watts, const WorkerFailure& failure);

}  // namespace powerlim::robust
