// Per-layer measurements of the traced runs. Each layer is timed from
// outside, by wrapping calls into its public functions in spans.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "common.h"
#include "workloads.h"

namespace perfbench {

/// Every per-layer metric the traced run prints, with its unit, in
/// print order. Layers a workload does not exercise report 0.
const std::vector<std::pair<std::string, std::string>>& layer_metric_units();

/// Values by name; unset names print as 0.
using LayerValues = std::map<std::string, double>;

std::vector<Metric> layer_metrics(const LayerValues& values);

/// Set-up layers, each the median of `reps` rounds: trace parse
/// (robust::load_trace_checked), lint (check::lint_trace_file), window
/// build (core::WindowSweeper), certificate build
/// (check::CertificateChecker). Fills dag.parse_ms, check.lint_ms,
/// core.window_build_ms, core.windows, check.cert_build_ms.
void measure_setup_layers(const std::string& trace_path, int reps,
                          Tracer& tracer, LayerValues* out);

/// Sums over the caps of traced passes.
struct RungTotals {
  int caps = 0;
  int accepted = 0;
  int replayed = 0;
  int degraded = 0;
  int passes = 0;
  double driver_ms = 0.0;
  double solve_ms = 0.0;
  double replay_ms = 0.0;
  double cert_ms = 0.0;
  double ladder_ms = 0.0;
  long attempts = 0;
  long pivots = 0;
  long wasted_pivots = 0;
};

/// One traced pass over `socket_caps` with a fresh default SolveDriver:
/// per cap a "driver.solve" span, then a "first_rung" span whose
/// children repeat the work of the driver's first rung through the
/// public functions it calls (core::WindowSweeper::solve,
/// sim::replay_schedule + sim::check_cap, check::CertificateChecker::verify).
void traced_rung_pass(const dag::TaskGraph& graph,
                      const std::vector<double>& socket_caps, Tracer& tracer,
                      RungTotals* totals);

/// Fills core.solve_ms, check.cert_ms, sim.replay_ms, robust.* and the
/// coverage shares from the totals.
void rung_layer_values(const RungTotals& totals, LayerValues* out);

/// Cold-solves every window model of `graph` at each cap with
/// lp::solve_lp and SimplexOptions::collect_timing (models from
/// dag::split_at_barriers and core::LpFormulation::build_model). Fills
/// lp.*.
void measure_lp_layers(const dag::TaskGraph& graph,
                       const std::vector<double>& socket_caps,
                       LayerValues* out);

}  // namespace perfbench
