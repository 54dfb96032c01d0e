// Fixed-vertex-order LP formulation (paper Section 3, Figures 4-6).
//
// Given an application task graph, a machine model, and a job-level power
// constraint PC, build and solve the linear program that the paper uses to
// compute the near-optimal performance bound:
//
//   minimize   v_finalize                                       (eq. 1)
//   subject to v_init = 0                                       (eq. 2)
//     per task i:    v_dst(i) - v_src(i) >= sum_k d_ik c_ik     (eqs. 3,4,7)
//     per message m: v_dst(m) - v_src(m) >= wire time
//     per task i:    sum_k c_ik = 1,  0 <= c_ik <= 1            (eqs. 6,9)
//     per event g:   sum_{i in R_g} sum_k p_ik c_ik <= PC       (eqs. 8,10,11)
//     event order:   v's keep the initial-schedule order        (eqs. 12,13)
//
// Variable substitutions vs. the paper's presentation (no loss of
// generality, large gain in LP size): s_i == v_src(i) (eq. 4 is an
// equality, so s is eliminated); d_i and p_i are substituted by their
// defining sums (eqs. 7, 8); P_j is eliminated by combining eqs. 10 and 11
// into one row per event.
//
// The same builder can pin c_ik to {0,1} and call branch & bound, giving
// the *discrete-configuration* variant (eq. 5) for small instances.
#pragma once

#include <functional>
#include <stdexcept>
#include <vector>

#include "core/events.h"
#include "core/schedule.h"
#include "dag/graph.h"
#include "lp/branch_bound.h"
#include "lp/simplex.h"
#include "machine/power_model.h"

namespace powerlim::core {

/// What the LP optimizes. kMakespan is the paper's formulation (eq. 1);
/// kEnergy is the related Rountree et al. SC'07 problem the paper builds
/// on - minimize energy subject to a performance bound - implemented here
/// as an extension over the same constraint system. Energy is execution
/// energy sum(d_ik * p_ik * c_ik), linear in the shares.
enum class LpObjective { kMakespan, kEnergy };

/// Raised when a task's configuration frontier reduces to nothing - the
/// LP cannot be formulated without at least one (time, power) point per
/// task. Typed (rather than a bare runtime_error) so robust sweep drivers
/// can classify the failure without string matching.
class EmptyFrontierError : public std::runtime_error {
 public:
  explicit EmptyFrontierError(int edge_id)
      : std::runtime_error("empty configuration frontier for task edge " +
                           std::to_string(edge_id)),
        edge_id_(edge_id) {}
  int edge_id() const { return edge_id_; }

 private:
  int edge_id_;
};

/// Build-time seams consulted while constructing a formulation. Used by
/// the fault-injection harness (robust/fault_injection.h) to corrupt the
/// pipeline at the exact layer a real failure would surface; production
/// callers pass none.
struct FormulationHooks {
  /// Called per task edge after its convex frontier is built; may modify
  /// the frontier in place (e.g. drop every point).
  std::function<void(int edge_id, std::vector<machine::Config>&)> frontier;
};

struct LpScheduleOptions {
  /// Job-level power constraint PC, watts (total across all sockets).
  /// Use lp::kInfinity for unconstrained-power energy minimization.
  double power_cap = 0.0;
  /// Solve with integral configurations (eq. 5) via branch & bound.
  /// Exponentially expensive; only for small instances.
  bool discrete = false;
  LpObjective objective = LpObjective::kMakespan;
  /// Upper bound on the Finalize time (required, and > 0, when the
  /// objective is kEnergy; optional extra constraint otherwise).
  double max_makespan = 0.0;
  lp::SimplexOptions simplex;
  lp::BranchBoundOptions branch_bound;
  /// Optional warm-start slot (continuous mode only). Reuse one slot per
  /// formulation across solves with different caps to skip phase I; the
  /// solver falls back to a cold start whenever the snapshot does not fit
  /// (see lp::WarmStart).
  lp::WarmStart* warm = nullptr;
  /// Fault-injection seam: invoked on the fully built LP model right
  /// before the solve (robust/fault_injection.h uses it to corrupt
  /// coefficients). Production callers leave it empty.
  std::function<void(lp::Model&)> mutate_model;
};

/// One window's LP in lp::Model form plus the structural metadata the
/// verification layer (src/check/) audits: which row caps which event
/// group, which row covers which edge, and which columns belong to whom.
/// Produced by LpFormulation::build_model and consumed both by solve()
/// and by check::lint_model / check::verify_certificate, so the model
/// that is linted or certified is bit-identical to the one solved.
struct BuiltModel {
  lp::Model model;
  /// Vertex-time variable per vertex id.
  std::vector<lp::Variable> vertex_var;
  /// Share variables c_ik per edge id (empty for messages).
  std::vector<std::vector<lp::Variable>> share_var;
  /// Row index of each task's duration row / message's wire row, by edge.
  std::vector<int> duration_row_of_edge;
  /// Row index of each task's share-sum row (eq. 9), by edge; -1 for
  /// messages.
  std::vector<int> convexity_row_of_edge;
  /// Row index of each event group's power-cap row; -1 when the group has
  /// no active task (such a group constrains nothing and needs no row).
  std::vector<int> power_row_of_group;
};

struct LpScheduleResult {
  lp::SolveStatus status = lp::SolveStatus::kNumericalError;
  /// Time of the Finalize vertex (the objective in kMakespan mode).
  double makespan = 0.0;
  /// Execution energy of the schedule, joules (the objective in kEnergy
  /// mode; reported in both modes).
  double energy_joules = 0.0;
  /// Per-task configuration mixture.
  TaskSchedule schedule;
  /// LP vertex times v_j.
  std::vector<double> vertex_time;
  /// Sum of active task power per event group (must be <= power_cap).
  std::vector<double> event_power;
  /// Marginal value of power: seconds of makespan saved per additional
  /// watt of job budget (from the duals of the binding event-power rows;
  /// 0 when the cap does not bind, and in discrete mode where duals do
  /// not exist). The "quantitative optimization target" in sensitivity
  /// form: it prices the cap.
  double power_price_s_per_watt = 0.0;
  long iterations = 0;
  /// Solver diagnostics surfaced for RunReports (see robust/): degenerate
  /// pivot count, refactorization count, whether Bland's rule engaged, and
  /// the max primal violation of the returned point.
  long degenerate_pivots = 0;
  long refactor_count = 0;
  bool bland_engaged = false;
  double primal_infeasibility = 0.0;
  /// Basis telemetry (schema 8): peak eta-file length between
  /// refactorizations and worst LU fill ratio nnz(L+U)/nnz(B). Both 0 in
  /// discrete mode.
  long eta_nonzeros = 0;
  double lu_fill_ratio = 0.0;
  /// Per-row duals of the solved model (minimization form), aligned with
  /// the rows of build_model(options); empty in discrete mode where duals
  /// do not exist. The certificate checker turns these into an exact
  /// weak-duality bound on the reported objective.
  std::vector<double> row_duals;

  bool optimal() const { return status == lp::SolveStatus::kOptimal; }
};

/// Builds the formulation once per (graph, machine) pair; solve() may then
/// be called for many power caps, which is how the paper sweeps Figure 9.
/// Throws EmptyFrontierError when a task has no usable configuration.
class LpFormulation {
 public:
  LpFormulation(const dag::TaskGraph& graph,
                const machine::PowerModel& model,
                const machine::ClusterSpec& cluster,
                const FormulationHooks* hooks = nullptr);

  /// Convex configuration frontier per edge id (empty for messages).
  const std::vector<std::vector<machine::Config>>& frontiers() const {
    return frontiers_;
  }
  /// Event order derived from the power-unconstrained initial schedule.
  const EventOrder& events() const { return events_; }
  /// The power-unconstrained (fastest-configuration) schedule.
  const dag::ScheduleTimes& initial_schedule() const { return initial_; }
  /// Makespan with unlimited power.
  double unconstrained_makespan() const { return initial_.makespan; }
  /// Smallest event-power sum achievable (every task at its cheapest
  /// frontier point); caps below this are infeasible.
  double min_feasible_power() const;

  /// Builds the LP (deterministic row/column order for a given graph and
  /// machine) without solving it. solve() calls this internally; the
  /// verification layer calls it to rebuild the exact model a solution
  /// claims to satisfy. Note options.mutate_model is NOT applied here -
  /// it is a solve-time fault seam, so an independent rebuild sees the
  /// uncorrupted model.
  BuiltModel build_model(const LpScheduleOptions& options) const;

  LpScheduleResult solve(const LpScheduleOptions& options) const;

  const dag::TaskGraph& graph() const { return *graph_; }

 private:
  const dag::TaskGraph* graph_;
  const machine::PowerModel* model_;
  const machine::ClusterSpec* cluster_;
  std::vector<std::vector<machine::Config>> frontiers_;
  std::vector<double> message_duration_;  // per edge id (0 for tasks)
  dag::ScheduleTimes initial_;
  EventOrder events_;
};

}  // namespace powerlim::core
