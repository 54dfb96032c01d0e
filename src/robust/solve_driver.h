// Resilient solve pipeline: retry/degradation ladder around the windowed
// LP (tentpole of the robustness work).
//
// SolveDriver wraps WindowSweeper so that a cap sweep *always finishes*
// with a structured per-cap verdict instead of dying on the first
// numerical failure. Each solve walks a two-rung ladder:
//
//   1. "dantzig" - every window solved cold under Dantzig's rule
//   2. "bland"   - the same cold solves under Bland's rule from the
//                  first pivot; nothing else changes
//
// and, when the ladder ends without an accepted solve, degrades to the
// Static-policy bound: the uniform-RAPL schedule is always simulable, so
// the sweep still reports an achievable (if conservative) time for the
// cap, clearly marked `degraded`. Only genuinely retryable failures
// walk the ladder - infeasible caps and bad inputs return immediately.
//
// An optimal LP solve is additionally *replay-validated*: the schedule is
// executed in the simulator and checked against the cap in the RAPL
// windowed-average sense (sim::check_cap); a violating schedule is
// treated as a failed attempt (kReplayCapViolation), not returned.
//
// Any retryable failure at "dantzig" runs "bland"; any failure at
// "bland" ends the ladder. Every solve starts cold (lp/simplex.h), so a
// retry that kept Dantzig's rule would judge the same vertex again after
// a replay or certificate failure; Bland's rule is the one change that
// can reach another optimal vertex. A numerical failure needs no rung of
// its own: lp::solve_lp already retries the failing window, refactoring
// every 20 pivots. Because nothing carries over from one cap to the
// next, a cap's whole report depends only on the trace and the cap.
//
// Every attempt is recorded in a RunReport (rung, outcome, iterations,
// degenerate pivots, refactorizations, Bland engagement, primal
// residual, failed window) which serializes to JSON for artifact trails
// next to the schedule.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "check/certificate.h"
#include "core/windowed.h"
#include "robust/status.h"
#include "sim/replay.h"
#include "util/deadline.h"

namespace powerlim::robust {

/// RunReport JSON schema version. Bump whenever the serialized shape
/// changes; tests/robust/report_schema_test.cpp locks the current shape
/// with a golden string so accidental drift fails loudly.
/// Schema 4 added the `lint` and `certificate` blocks (verification
/// layer) and the `certificate-failed` verdict. Schema 5 added the
/// `transport` block (distributed sweeps): endpoint, retries,
/// backoff_ms, heartbeat_misses. Schemas 6 and 7 carried a `service`
/// block of daemon request telemetry. Schema 8 added `eta_nonzeros` and
/// `lu_fill_ratio` to each ladder attempt (simplex basis telemetry).
/// Schema 9 splits every report into two objects,
/// `{"schema_version":9,"result":{...},"telemetry":{...}}`. `result`
/// holds the bound and its verdicts and is byte-identical across
/// serial, pooled, remote and daemon runs of the same cap. `telemetry`
/// holds what depends on how and where the cap was solved: wall_ms, the
/// worker and transport blocks, each attempt's simplex-path counters and
/// primal residual (an array parallel to `result.attempts`),
/// `replay.violation_watts` and `certificate.duality_gap`. Schema 9
/// dropped the `service` block: the daemon reports those per-request
/// values in its done frame and hello ack (serve/protocol.h). Schema 10
/// dropped `ladder.enable_ladder`: the two-rung ladder is always on.
/// Schema 11 dropped `ladder.enable_fallback` and
/// `ladder.validate_replay`: every solve is replay-validated and every
/// exhausted ladder degrades to the Static-policy bound. Schema 12
/// renamed the first rung from `warm` to `dantzig` (every solve starts
/// cold), and `fault.active` echoes only a fault that could have shaped
/// the row.
inline constexpr int kRunReportSchemaVersion = 12;

/// One rung of the ladder, as executed.
struct SolveAttempt {
  std::string rung;
  StatusCode outcome = StatusCode::kInternal;
  /// True when the outcome was synthesized by the active FaultPlan
  /// rather than produced by a real solve.
  bool injected = false;
  std::string detail;
  long iterations = 0;
  long degenerate_pivots = 0;
  long refactor_count = 0;
  bool bland_engaged = false;
  double primal_infeasibility = 0.0;
  /// Basis telemetry (schema 8): summed peak eta-file nonzeros and worst
  /// LU fill ratio across windows. Both 0 when the attempt factorized no
  /// basis (an injected outcome, for one).
  long eta_nonzeros = 0;
  double lu_fill_ratio = 0.0;
  /// Barrier window whose solve failed (-1: none / not window-local).
  int failed_window = -1;
};

/// Post-replay cap-compliance record (only when an optimal solve was
/// replay-validated).
struct ReplayVerdict {
  bool checked = false;
  sim::CapCheck check;
};

/// Exact-certificate verdict echo (schema 4): the verdict for the
/// *accepted* solution when the cap ended kOk, or the last failing
/// verdict when certificate rejection contributed to degradation.
struct CertificateEcho {
  /// True when the checker ran for this cap at least once.
  bool checked = false;
  bool ok = false;
  /// True when weak duality was validated (solver duals available).
  bool duality_checked = false;
  double max_violation = 0.0;
  /// Floating-point residual of the duals, serialized as telemetry: it
  /// is a rounding residue, not a verdict (the exact verdicts above
  /// are what a bound stands on).
  double duality_gap = 0.0;
  /// First failing rule's message; empty when ok.
  std::string detail;
};

/// Input-lint echo (schema 4): error/warning counts from the one-time
/// structural lint of the trace + machine model this driver solves (run
/// on the first solve). Lint findings never block the solve - the CLI
/// input gate rejects bad traces up front; this echo records that the
/// inputs of *this* run were (or were not) clean.
struct LintEcho {
  bool checked = false;
  int errors = 0;
  int warnings = 0;
};

/// Worker-process supervision telemetry (schema 3). Zeroed for an
/// in-process solve; a forked sweep worker stamps it before shipping its
/// report, and the supervisor synthesizes it for caps whose workers
/// died. Serialized under `telemetry`, like wall_ms.
struct WorkerTelemetry {
  /// True when the solve ran in an isolated worker process.
  bool isolated = false;
  /// Worker spawns this cap consumed (1 = clean first try, 2 = retried).
  int spawns = 0;
  /// Attempts that crashed/starved before this result (= spawns - 1
  /// when the final attempt succeeded).
  int retries = 0;
  /// Peak resident set over the cap's workers, KiB (0 = not measured).
  long peak_rss_kb = 0;
};

/// Remote-transport telemetry (schema 5). Zeroed unless the cap was
/// settled through a distributed sweep's coordinator, which splices the
/// real values into the worker-produced report (the worker cannot know
/// how many times its cap bounced between peers). Serialized under
/// `telemetry`, like wall_ms and the worker block.
struct TransportTelemetry {
  /// True when the accepted result came from a remote powerlimd.
  bool remote = false;
  /// "host:port" of the worker that settled the cap (empty for local).
  std::string endpoint;
  /// Attempts lost (anywhere) before this cap settled.
  int retries = 0;
  /// Total connect-backoff wait accumulated by the settling session, ms.
  double backoff_ms = 0.0;
  /// Heartbeat intervals that elapsed silent while the cap solved
  /// remotely (below the dead-peer threshold - a slow, live worker).
  int heartbeat_misses = 0;
};

/// Resolved supervision/ladder options echoed into every RunReport so a
/// degraded or fault-injected run is reproducible from the report alone.
struct LadderEcho {
  /// Per-cap wall-clock budget, ms (0: unlimited).
  double cap_deadline_ms = 0.0;
  /// Whether a cancel token was attached to the solve.
  bool cancellable = false;
};

/// The structured verdict for one cap: what happened, how hard the
/// driver had to try, and what bound (if any) survived.
struct RunReport {
  /// Serialized-shape version (kRunReportSchemaVersion).
  int schema_version = kRunReportSchemaVersion;
  double job_cap_watts = 0.0;
  double socket_cap_watts = 0.0;
  /// Final classification. kOk: the LP bound stands. Anything else with
  /// `degraded` set: the failure class that exhausted the ladder, with
  /// the Static-policy bound substituted.
  StatusCode verdict = StatusCode::kInternal;
  std::string detail;
  /// True when `bound_seconds` is the Static-policy fallback, not the LP
  /// optimum. A degraded bound is *achievable but conservative*: it is
  /// an upper bound on the optimal time, where the LP bound is the
  /// near-optimal target itself.
  bool degraded = false;
  /// Fallback that produced the degraded bound ("static-policy").
  std::string fallback;
  /// LP bound when verdict == kOk; fallback time when degraded;
  /// < 0 when no bound of any kind was obtained.
  double bound_seconds = -1.0;
  double energy_joules = 0.0;
  double min_feasible_power_watts = 0.0;
  /// Wall-clock time the driver spent on this cap, ms (telemetry).
  double wall_ms = 0.0;
  /// True when an injected fault could have shaped this row (see
  /// echo_fault_plan); `fault_seed` then reproduces it bit-identically.
  bool fault_active = false;
  std::uint64_t fault_seed = 0;
  /// Resolved supervision options for this solve.
  LadderEcho ladder;
  /// Worker-process telemetry (zeroed for in-process solves).
  WorkerTelemetry worker;
  /// Remote-transport telemetry (zeroed for local solves).
  TransportTelemetry transport;
  std::vector<SolveAttempt> attempts;
  ReplayVerdict replay;
  CertificateEcho certificate;
  LintEcho lint;

  /// Did this cap end with *some* usable bound (optimal or degraded)?
  bool usable() const {
    return verdict == StatusCode::kOk || (degraded && bound_seconds >= 0.0);
  }

  /// `{"schema_version":N,"result":{...},"telemetry":{...}}` on one
  /// line. Which field is result and which is telemetry is decided here
  /// and nowhere else (see kRunReportSchemaVersion).
  std::string to_json() const;
};

/// The report file of a sweep: `[`, then one RunReport JSON line per cap
/// (each RunReport::to_json), separated by commas, then `]`.
std::string reports_to_json(const std::vector<std::string>& reports);

/// Splices real transport telemetry into an already-serialized report
/// (remote workers ship their report as JSON; only the coordinator
/// knows the endpoint/retry history). Returns the input unchanged when
/// no "transport" block is present (pre-schema-5 journal records).
/// Schema 9 keeps the block inside `telemetry`; older records keep it
/// at the top level, and both are patched in place.
std::string patch_transport_json(const std::string& report_json,
                                 const TransportTelemetry& transport);

/// Result of one driver solve: the LP result (meaningful when the
/// verdict is kOk), the validated/fallback simulation when one ran, and
/// the full report.
struct SolveOutcome {
  core::WindowedLpResult lp;
  /// Replay of the accepted schedule (kOk + validation on), or the
  /// Static-policy fallback simulation (degraded).
  std::optional<sim::SimResult> simulated;
  RunReport report;

  bool ok() const { return report.verdict == StatusCode::kOk; }
  bool usable() const { return report.usable(); }
};

struct SolveDriverOptions {
  /// Base LP options; power_cap is overwritten per solve and the "bland"
  /// rung sets simplex.bland_trigger to 0.
  core::LpScheduleOptions lp;
  /// Re-verify every optimal solve with the exact certificate checker
  /// before accepting it; a rejected certificate walks the ladder like a
  /// solver fault (kCertificateFailed) and degrades when exhausted.
  bool verify_certificate = true;
  check::CertificateOptions certificate;
  sim::CapCheckOptions cap_check;
  /// Replay physics (engine cluster/idle power are filled by the driver).
  sim::ReplayOptions replay;
  /// Per-cap wall-clock budget in milliseconds; <= 0 means unlimited.
  /// The budget covers the whole ladder: when it runs out mid-rung the
  /// solve returns kDeadlineExceeded and degrades straight to the
  /// Static-policy fallback (which needs no LP) instead of burning the
  /// remaining rungs on instant failures.
  double cap_deadline_ms = 0.0;
  /// Cooperative cancellation, checked at pivot granularity (not owned;
  /// must outlive the driver). A tripped token ends the solve with
  /// kCancelled - terminal, no fallback.
  const util::CancelToken* cancel = nullptr;
  /// Outer wall budget over the whole sweep, merged (sooner-wins) with
  /// the per-cap budget into every solve's supervision deadline. When
  /// both carry cancel tokens, `cancel` above wins.
  util::Deadline deadline;
};

struct FaultPlan;

// What every report of a cap echoes, and the Static-policy fallback. The
// driver and the supervisor of an isolated worker that died
// (degraded_entry_for_failure, robust/pipeline.h) both build their
// reports with these, so a degraded row has the same bytes on every path.

/// The resolved options a report echoes (RunReport::ladder).
LadderEcho ladder_echo(const SolveDriverOptions& options);

/// Records in `report` whether the active FaultPlan injures its cap's
/// solve (FaultPlan::injures_solve), and the plan's seed when it does.
/// With `worker_died` a worker fault on the cap counts too: the row of a
/// dead worker is shaped by it. Network faults never count; a row that
/// crossed an injured connection is the row a clean solve produced.
/// Returns the plan when it injures the solve, or nullptr.
const FaultPlan* echo_fault_plan(RunReport& report, bool worker_died = false);

/// Substitutes the Static-policy bound at the report's cap: the
/// uniform-RAPL schedule is simulated and `degraded`, `fallback`,
/// `bound_seconds` and `energy_joules` are filled from it. A simulation that throws appends
/// "; static fallback also failed: <what>" to `detail` instead. Returns
/// the simulation when it ran.
std::optional<sim::SimResult> static_fallback(
    const dag::TaskGraph& graph, const machine::PowerModel& model,
    const machine::ClusterSpec& cluster, RunReport& report);

class SolveDriver {
 public:
  /// All references must outlive the driver. Formulation build errors
  /// (e.g. an empty frontier) are deferred: construction never throws,
  /// the first solve reports them as its verdict.
  SolveDriver(const dag::TaskGraph& graph, const machine::PowerModel& model,
              const machine::ClusterSpec& cluster,
              SolveDriverOptions options = {});
  ~SolveDriver();
  SolveDriver(SolveDriver&&) noexcept;
  SolveDriver& operator=(SolveDriver&&) noexcept;

  /// Runs the ladder for one job-level cap. Never throws: every failure
  /// mode lands in the report.
  SolveOutcome solve(double job_cap_watts) const;

  /// Per-cap sweep; one outcome per cap, in order, independent of
  /// individual failures.
  std::vector<SolveOutcome> sweep(const std::vector<double>& job_caps) const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace powerlim::robust
