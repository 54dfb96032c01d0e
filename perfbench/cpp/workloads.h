// Workload entry points, run options, and the reference results the
// correctness gate compares against.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "dag/graph.h"
#include "machine/machine.h"
#include "machine/power_model.h"

namespace perfbench {

namespace dag = powerlim::dag;
namespace machine = powerlim::machine;

struct RunOptions {
  std::string workload;
  /// Drives what is random in a serve-mixed run: the fresh write caps,
  /// and which writes are re-solved offline.
  std::uint64_t seed = 1;
  /// Seed of the corpus, fixed by default: the generated traces and the
  /// arrival schedule of the serve-mixed fixed-rate phase.
  std::uint64_t trace_seed = 17;
  double seconds = 20.0;
  bool trace = false;
  /// Work directory for generated traces and daemon state; created
  /// and removed by the run.
  std::string work_dir;
  /// perfbench/reference.txt.
  std::string reference_path;
  /// Where the traced run writes its spans.
  std::string spans_path;
};

/// The paper's trace generators at the workload's shape.
struct TraceSpec {
  std::string app;  // "comd" | "lulesh"
  int ranks = 0;
  int iterations = 0;
};

dag::TaskGraph make_trace(const TraceSpec& spec, std::uint64_t trace_seed);

/// Socket caps from..to inclusive in `step` W.
std::vector<double> cap_grid(double from, double to, double step);

/// An offline cap sweep workload.
struct SweepWorkload {
  std::string name;
  TraceSpec trace;
  /// Socket caps, W.
  std::vector<double> caps;
};

/// Cap solves a sweep run makes at least; its tail percentile is the one
/// this count supports (p75), whatever the run's actual count.
inline constexpr std::size_t kMinSweepSolves = 40;

/// sweep-comd and sweep-lulesh.
const std::vector<SweepWorkload>& sweep_workloads();

/// serve-mixed: the served trace and the caps set-up proves.
inline constexpr char kServeWorkload[] = "serve-mixed";
TraceSpec serve_trace_spec();
std::vector<double> serve_primed_caps();

/// The machine every powerlim command uses by default.
const machine::PowerModel& default_model();
const machine::ClusterSpec& default_cluster();

/// Reference results of one (workload, trace seed, socket cap): the LP
/// bound from a cold windowed solve outside SolveDriver, the
/// Static-policy bound SolveDriver reports when it degrades, and the
/// verdict the cap is expected to end with.
struct RefCap {
  double socket_w = 0.0;
  double lp_bound_s = 0.0;
  double static_bound_s = 0.0;
  /// Expected to degrade to the Static bound rather than end `ok`.
  bool degraded = false;
};

/// References for `caps`, read from the store at `path` (lines of
/// "<workload> <trace-seed> <socket-W> <lp-bound-s> <static-bound-s>
/// ok|degraded"). Throws when the store lacks one of them.
std::vector<RefCap> load_references(const std::string& path,
                                    const std::string& workload,
                                    std::uint64_t trace_seed,
                                    const std::vector<double>& caps);

/// Store lines for every cap of every workload at `trace_seed`. The
/// bounds are computed outside SolveDriver (core::solve_windowed_lp with
/// default options, and the Static-policy simulation); the verdict is
/// what a default SolveDriver returns over the ascending grid.
std::string reference_lines(std::uint64_t trace_seed);

int run_sweep(const RunOptions& opt);
int run_serve(const RunOptions& opt);

/// Exit code of a run whose outputs failed the correctness gate.
inline constexpr int kExitIncorrect = 3;

}  // namespace perfbench
