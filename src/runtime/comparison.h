// End-to-end experiment driver: LP bound vs. Static vs. Conductor.
//
// This is the backbone of the paper's evaluation (Section 6): for one
// application trace and one job-level power cap it produces the
// steady-state times of
//   * Static    - uniform per-socket RAPL caps, 8 threads (Section 4.1),
//   * Conductor - adaptive allocation (Section 4.2),
//   * Adagio    - slack reclamation only (ablation; Section 6 discusses
//                 "only the configuration selection" as a variant),
//   * LP        - the near-optimal schedule from the fixed-vertex-order
//                 LP, *replayed* on the simulator with DVFS-transition
//                 overheads, as the paper validates (Section 6.1),
// all measured from iteration `discard_iterations` onward (Section 5.3).
//
// The LP is always solved per barrier window (core::WindowSweeper), which
// is exact for these traces (dag/windows.h). The monolithic trace LP the
// paper's text describes is core::LpFormulation over the whole graph; the
// ablation bench and the windowed-exactness tests solve it that way.
#pragma once

#include "core/windowed.h"
#include "dag/graph.h"
#include "machine/power_model.h"
#include "runtime/conductor.h"
#include "sim/engine.h"

namespace powerlim::runtime {

struct ComparisonOptions {
  /// Total job power budget, watts (== per-socket cap x ranks).
  double job_cap_watts = 0.0;
  /// Iterations discarded as the exploration phase.
  int discard_iterations = 3;
  ConductorOptions conductor;
  /// `simplex.deadline` bounds the whole comparison, not just the LP:
  /// the solver observes it at pivot granularity, and the driver checks
  /// it between the Static/Conductor/Adagio simulations - methods not
  /// reached before expiry come back infeasible instead of running over
  /// budget.
  lp::SimplexOptions simplex;
  /// Also run the Adagio-only ablation.
  bool run_adagio = false;
};

struct MethodResult {
  bool feasible = false;
  /// Steady-state seconds (after the discard window).
  double window_seconds = 0.0;
  double makespan = 0.0;
  double peak_power = 0.0;
  double average_power = 0.0;
};

struct ComparisonResult {
  MethodResult lp;
  MethodResult static_alloc;
  MethodResult conductor;
  MethodResult adagio;

  /// (t_base / t_better - 1) * 100: the paper's "potential improvement".
  static double improvement_pct(const MethodResult& base,
                                const MethodResult& better) {
    if (!base.feasible || !better.feasible || better.window_seconds <= 0.0) {
      return 0.0;
    }
    return (base.window_seconds / better.window_seconds - 1.0) * 100.0;
  }

  double lp_vs_static() const { return improvement_pct(static_alloc, lp); }
  double lp_vs_conductor() const { return improvement_pct(conductor, lp); }
  double conductor_vs_static() const {
    return improvement_pct(static_alloc, conductor);
  }
};

/// Runs all methods on one trace under one cap. For multi-cap grids,
/// pass a precomputed `sweeper` so frontier/event construction is
/// amortized.
ComparisonResult compare_methods(const dag::TaskGraph& graph,
                                 const machine::PowerModel& model,
                                 const machine::ClusterSpec& cluster,
                                 const ComparisonOptions& options,
                                 const core::WindowSweeper* sweeper =
                                     nullptr);

}  // namespace powerlim::runtime
