// Deterministic fault injection for the solve pipeline.
//
// A FaultPlan describes a set of faults - forced solver statuses,
// corrupted LP coefficients, emptied Pareto frontiers - and is installed
// thread-locally with ScopedFaultPlan. robust::SolveDriver consults the
// active plan at each ladder attempt, and its formulation hooks consult
// it while frontiers are built, so every rung of the retry/degradation
// ladder can be exercised on demand. All faults are seeded and
// deterministic: a failing injection test replays bit-identically.
//
// Trace-corruption helpers (truncate/garble) operate on serialized trace
// text so tests can manufacture corrupt fixtures without hand-writing
// broken files.
#pragma once

#include <cstdint>
#include <string>

#include "lp/simplex.h"

namespace powerlim::robust {

/// Faults executed *inside a forked worker process* (robust/worker_pool)
/// rather than synthesized as solver statuses: the worker genuinely
/// dies, and the supervisor's containment/retry machinery is what gets
/// exercised.
enum class WorkerFault {
  kNone,
  /// abort() before the solve: signal death (SIGABRT), the SIGSEGV
  /// stand-in that sanitizers do not intercept.
  kCrash,
  /// Exit with the allocator-failure code, as if RLIMIT_AS had starved
  /// the solve (the real allocation path is exercised separately with an
  /// actual rlimit; injection keeps CI memory-safe).
  kOom,
  /// Sleep until the supervisor's deadline kills the worker.
  kHang,
};

/// Kebab-case names used by `powerlim sweep --inject-fail worker-*`:
/// "worker-crash", "worker-oom", "worker-hang". Returns false on an
/// unknown name (including "worker-none").
bool worker_fault_from_string(const std::string& name, WorkerFault* fault);
const char* to_string(WorkerFault fault);

/// Network faults for distributed sweeps, executed at either endpoint:
/// `powerlim serve --inject-fail net-*` injures the replies to the
/// daemon's `solve` requests (the worker side), `powerlim sweep
/// --inject-fail net-*` the scheduler side of the pool's remote
/// sessions. Each mode exercises one arm of the reassignment ladder
/// (robust/worker_pool.h).
enum class NetFault {
  kNone,
  /// Drop the connection mid-result-frame (torn frame + disconnect).
  kDrop,
  /// Go silent past the heartbeat deadline (dead-peer detection).
  kStall,
  /// Flip a byte inside a framed payload (CRC rejection).
  kCorrupt,
  /// Delay every frame by a sub-deadline amount (kNetSlowDelayMs on the
  /// worker side): slow but alive, must NOT be classified as dead.
  kSlow,
  /// Worker-only: skip local certificate verification and corrupt the
  /// solution epsilon-subtly (a Byzantine "too good" bound); the
  /// scheduler's certificate gate must reject it.
  kLie,
};

/// Worker-side kSlow: each heartbeat interval and the result are late by
/// this much, ms - well inside the scheduler's dead-peer threshold.
inline constexpr double kNetSlowDelayMs = 200.0;

/// Kebab-case names: "net-drop", "net-stall", "net-corrupt", "net-slow",
/// "net-lie". Returns false on an unknown name (including "net-none").
bool net_fault_from_string(const std::string& name, NetFault* fault);
const char* to_string(NetFault fault);

struct FaultPlan {
  std::uint64_t seed = 1;

  /// Override the first `fail_attempts` ladder attempts with
  /// `forced_status` instead of running the solver. Use a large value
  /// (e.g. 99) to exhaust the whole ladder and force the degradation
  /// fallback. 0 disables status forcing.
  int fail_attempts = 0;
  lp::SolveStatus forced_status = lp::SolveStatus::kNumericalError;

  /// When >= 0, the plan applies only to solves whose *job-level* cap is
  /// within `cap_tolerance` watts of this value - the "one injected
  /// failing cap in a sweep" scenario. Negative applies to every solve.
  double only_job_cap = -1.0;
  double cap_tolerance = 1e-6;

  /// When > 0, every LP constraint coefficient is scaled by a seeded
  /// factor in [10^-x, 10^+x] before each solve (via the
  /// LpScheduleOptions::mutate_model seam): genuinely corrupt numerics,
  /// not a synthesized status.
  double coefficient_noise_magnitude = 0.0;

  /// Drop every point of every task's Pareto frontier while the
  /// formulation is built (via FormulationHooks::frontier), forcing
  /// core::EmptyFrontierError.
  bool drop_all_pareto_points = false;

  /// When > 0, every vertex time and the makespan of an *optimal* solve
  /// result is shrunk by this relative amount after the solver returns
  /// but before acceptance - the "too good to be true" bound. Replay
  /// validation cannot see it (the schedule's configs are untouched);
  /// only the exact certificate checker catches it, via precedence rows
  /// that no longer cover the task durations. Exercises the
  /// kCertificateFailed path end to end.
  double corrupt_solution_epsilon = 0.0;

  /// Worker-process fault executed by forked workers whose cap matches
  /// (only_job_cap scopes this exactly like the status faults).
  WorkerFault worker_fault = WorkerFault::kNone;
  /// Spawn attempts (0-based, per cap) that execute the fault. The
  /// default injures only the first spawn, so the supervisor's
  /// retry-in-a-fresh-worker succeeds; 2+ exhausts the retry and forces
  /// the worker-crashed / resource-exhausted degradation.
  int worker_fault_attempts = 1;

  /// Network fault executed on matching caps of a distributed sweep: on
  /// the pool's remote sessions in the process that installed the plan
  /// (and in the executors a daemon forks), and on the replies to a
  /// daemon's `solve` requests.
  NetFault net_fault = NetFault::kNone;
  /// Remote attempts (0-based, per cap) that execute the network fault.
  /// The default injures only the first attempt, so the retry on a
  /// different worker succeeds and the sweep stays byte-identical.
  int net_fault_attempts = 1;

  bool applies_to_cap(double job_cap_watts) const;
  bool forces_status() const { return fail_attempts > 0; }
  /// Whether the plan injures the solve itself: a forced status,
  /// coefficient noise, dropped frontiers or a corrupted solution.
  /// Worker and network faults injure a process or a connection instead.
  bool injures_solve() const {
    return forces_status() || coefficient_noise_magnitude > 0.0 ||
           drop_all_pareto_points || corrupt_solution_epsilon > 0.0;
  }
};

/// Executes the active plan's worker fault for this cap/attempt, in the
/// current (worker) process. No-op when no plan is active, the fault is
/// kNone, the cap does not match, or `attempt` is past the injured
/// count. kCrash and kOom do not return.
void maybe_execute_worker_fault(double job_cap_watts, int attempt);

/// RAII installation of a fault plan for the current thread. Nested
/// scopes shadow (innermost wins); destruction restores the previous
/// plan. The plan must outlive the scope.
class ScopedFaultPlan {
 public:
  explicit ScopedFaultPlan(const FaultPlan& plan);
  ~ScopedFaultPlan();
  ScopedFaultPlan(const ScopedFaultPlan&) = delete;
  ScopedFaultPlan& operator=(const ScopedFaultPlan&) = delete;

  /// The innermost installed plan, or nullptr when no fault injection is
  /// active (the production fast path: one thread-local load).
  static const FaultPlan* active();

 private:
  const FaultPlan* prev_;
};

/// Truncates serialized trace text to roughly `keep_fraction` of its
/// lines, cutting the final kept line in half so the tail token is
/// malformed - the classic interrupted-copy corruption.
std::string truncate_trace_text(const std::string& text,
                                double keep_fraction);

/// Replaces one numeric token of one seeded-random data line with
/// non-numeric garbage. Deterministic for a given seed.
std::string garble_trace_token(const std::string& text, std::uint64_t seed);

}  // namespace powerlim::robust
