// Exact certificate checker for accepted LP/ILP solutions.
//
// A solution that the simplex labels "optimal" is still just a vector of
// doubles produced by thousands of floating-point pivots - and after
// PRs 1-3 it may additionally have passed through retry rungs, fault
// seams, a fork/pipe round trip, and a journal replay. verify_certificate
// re-validates the claim from first principles, independently of the
// solver:
//
//   1. The problem data (frontiers, event order, constraint rows) are
//      re-derived from the trace and machine model - NOT taken from the
//      solver's state - so corruption injected anywhere in the solve path
//      is caught.
//   2. Primal feasibility (precedence, the power cap at every event,
//      share weights summing to 1, the frozen event order) is evaluated
//      in exact dyadic-rational arithmetic (check/rational.h): the only
//      approximation is the final comparison against the configured
//      tolerance, itself converted exactly.
//   3. Weak duality: from the solver's duals y, the Lagrangian bound
//      g(y) <= opt is computed exactly (column by column, one reduced
//      cost at a time in an ExactAccumulator) and the reported
//      objective must satisfy  objective - g(y) <= gap tolerance. Any y
//      gives a valid bound, so sign-inconsistent duals are sanitized to
//      zero rather than trusted; a corrupted solve therefore yields a
//      huge gap, not a wrong certificate. (See FORMULATION.md for why
//      box bounds on the vertex times preserve the optimum.)
//
// Verdicts feed RunReport's `certificate` block and the
// `certificate-failed` status.
//
// powerlint: allow-file(float-in-exact) -- the checker's interface ingests the solver's IEEE doubles and reports tolerances as doubles by contract; every comparison and all internal math is Dyadic (rational.h), whose own boundary lines carry per-line suppressions
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/windowed.h"
#include "dag/graph.h"
#include "machine/machine.h"
#include "machine/power_model.h"

namespace powerlim::check {

struct CertificateOptions {
  /// Absolute feasibility tolerance in each constraint's native unit
  /// (seconds for precedence/order rows, watts for cap rows, unitless for
  /// share weights).
  double feasibility_tol = 1e-6;
  /// Relative weak-duality gap tolerance: the reported objective may
  /// exceed the certified lower bound by at most this fraction of
  /// max(1, objective).
  double duality_gap_tol = 1e-4;
  /// Fail (rather than skip) the weak-duality check when the solver
  /// provided no duals. Leave false for discrete (branch & bound) solves,
  /// which have no duals by nature.
  bool require_duals = false;
};

/// One rule's aggregated verdict across all windows.
struct CertificateCheck {
  std::string rule;
  bool ok = true;
  /// Worst violation seen, in the rule's native unit (0 when ok).
  double violation = 0.0;
  /// First failure's description; empty when ok.
  std::string detail;
};

struct CertificateVerdict {
  /// False when verification could not run at all (malformed result).
  bool checked = false;
  bool ok = false;
  /// True when the weak-duality check ran (duals were available).
  bool duality_checked = false;
  /// Worst primal violation across rules (native units).
  double max_violation = 0.0;
  /// Certified relative duality gap (0 when not checked).
  double duality_gap = 0.0;
  std::vector<CertificateCheck> checks;
  /// First failing rule's message; empty when ok.
  std::string detail;
};

/// Re-derives the per-window verification structures (frontiers, event
/// orders, LP rows) once per (graph, machine) pair; verify() may then be
/// called for every accepted cap of a sweep. The rebuild deliberately
/// bypasses all fault-injection hooks.
class CertificateChecker {
 public:
  CertificateChecker(const dag::TaskGraph& graph,
                     const machine::PowerModel& model,
                     const machine::ClusterSpec& cluster,
                     CertificateOptions options = {});
  ~CertificateChecker();
  CertificateChecker(CertificateChecker&&) noexcept;
  CertificateChecker& operator=(CertificateChecker&&) noexcept;

  /// Verifies one accepted solve. `job_cap_watts` is the cap the bound
  /// claims to honor (used for the event-cap check); `effective_cap_watts`
  /// is the cap the solver was actually given, used to rebuild the model
  /// rows the duals price. Every production solve is given the claimed
  /// cap, so its callers pass the same value twice.
  CertificateVerdict verify(const core::WindowedLpResult& result,
                            double job_cap_watts,
                            double effective_cap_watts) const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// One-shot convenience over CertificateChecker.
CertificateVerdict verify_certificate(const dag::TaskGraph& graph,
                                      const machine::PowerModel& model,
                                      const machine::ClusterSpec& cluster,
                                      const core::WindowedLpResult& result,
                                      double job_cap_watts,
                                      const CertificateOptions& options = {});

}  // namespace powerlim::check
