// Windowed (barrier-decomposed) LP solve.
//
// Solves the fixed-vertex-order LP independently on each barrier-to-
// barrier window of the trace (see dag/windows.h for why this is exact)
// and stitches the results back together on original edge/vertex ids.
// This is the production entry point for paper-scale sweeps: cost is
// linear in the number of iterations instead of cubic.
#pragma once

#include <memory>
#include <vector>

#include "core/lp_formulation.h"
#include "dag/graph.h"
#include "machine/power_model.h"

namespace powerlim::core {

struct WindowedLpResult {
  lp::SolveStatus status = lp::SolveStatus::kNumericalError;
  /// Sum of per-window makespans == time of Finalize.
  double makespan = 0.0;
  /// Execution energy of the schedule, joules.
  double energy_joules = 0.0;
  /// Per-task mixtures on the *original* edge ids.
  TaskSchedule schedule;
  /// Firing times of the original vertices (window offsets accumulated).
  std::vector<double> vertex_time;
  /// Convex frontier per original edge id (for replay).
  std::vector<std::vector<machine::Config>> frontiers;
  /// Highest event-power sum across all windows (diagnostic; <= cap).
  double peak_event_power = 0.0;
  /// Marginal value of power summed over windows: seconds of total
  /// makespan saved per extra watt of job budget (0 when nothing binds).
  double power_price_s_per_watt = 0.0;
  long iterations = 0;
  /// Smallest cap for which every window is feasible.
  double min_feasible_power = 0.0;
  /// Solver diagnostics aggregated across windows (for RunReports):
  /// summed degenerate pivots and refactorizations, whether Bland's rule
  /// engaged in any window, and the worst primal violation seen.
  long degenerate_pivots = 0;
  long refactor_count = 0;
  bool bland_engaged = false;
  double primal_infeasibility = 0.0;
  /// Basis telemetry: summed peak eta-file nonzeros and the worst LU
  /// fill ratio across windows.
  long eta_nonzeros = 0;
  double lu_fill_ratio = 0.0;
  /// Index of the window whose solve failed (-1 when optimal): localizes
  /// a numerical failure to one barrier interval of the trace.
  int failed_window = -1;
  /// Per-window row duals of the solved LP (minimization form), aligned
  /// with the rows of that window's LpFormulation::build_model. Empty
  /// inner vectors in discrete mode. check::verify_certificate uses them
  /// for the exact weak-duality validation of the reported bound.
  std::vector<std::vector<double>> window_duals;

  bool optimal() const { return status == lp::SolveStatus::kOptimal; }
};

/// Solves each window under the same job-level cap: a one-shot
/// WindowSweeper. Returns on first infeasible/failed window with that
/// window's status.
WindowedLpResult solve_windowed_lp(const dag::TaskGraph& graph,
                                   const machine::PowerModel& model,
                                   const machine::ClusterSpec& cluster,
                                   const LpScheduleOptions& options);

/// Energy-minimization extension (the Rountree et al. SC'07 problem over
/// this repo's machinery): minimize execution energy while every window
/// finishes within (1 + slowdown_allowance) of its power-unconstrained
/// optimum, optionally under a job power cap. The per-window deadline is
/// the natural windowed form of the global bound - iterative codes
/// re-synchronize at every barrier, so allowance cannot usefully be
/// banked across iterations anyway.
WindowedLpResult solve_windowed_energy_lp(const dag::TaskGraph& graph,
                                          const machine::PowerModel& model,
                                          const machine::ClusterSpec& cluster,
                                          double slowdown_allowance,
                                          double power_cap = lp::kInfinity);

/// Multi-cap sweeps: splits the trace and builds each window's
/// formulation (frontiers, initial schedule, event sets - all
/// cap-independent) exactly once, then solves any number of caps against
/// the prebuilt structures. Use this for Figure 9-style grids,
/// `powerlim sweep`, and job profiling. Its solve() holds the only
/// windowed loop; the free functions above are one-shot sweepers.
class WindowSweeper {
 public:
  /// `hooks` (optional, not owned; must outlive the sweeper) is the
  /// fault-injection seam forwarded to each window's formulation.
  WindowSweeper(const dag::TaskGraph& graph,
                const machine::PowerModel& model,
                const machine::ClusterSpec& cluster,
                const FormulationHooks* hooks = nullptr);
  ~WindowSweeper();
  WindowSweeper(WindowSweeper&&) noexcept;
  WindowSweeper& operator=(WindowSweeper&&) noexcept;

  /// Solves all windows under `options` (same semantics as
  /// solve_windowed_lp).
  WindowedLpResult solve(const LpScheduleOptions& options) const;

  /// Smallest job cap for which every window is feasible.
  double min_feasible_power() const;
  /// Sum of window optima with unlimited power.
  double unconstrained_makespan() const;
  std::size_t num_windows() const;

 private:
  // Runs the same loop with a deadline per window.
  friend WindowedLpResult solve_windowed_energy_lp(
      const dag::TaskGraph&, const machine::PowerModel&,
      const machine::ClusterSpec&, double, double);

  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace powerlim::core
