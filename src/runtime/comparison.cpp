#include "runtime/comparison.h"

#include "core/windowed.h"

#include "runtime/adagio.h"
#include "runtime/static_policy.h"
#include "sim/measure.h"
#include "sim/replay.h"

namespace powerlim::runtime {

namespace {

MethodResult from_sim(const dag::TaskGraph& graph, const sim::SimResult& res,
                      int discard_iterations) {
  MethodResult out;
  out.feasible = true;
  out.makespan = res.makespan;
  out.window_seconds =
      sim::steady_window_seconds(graph, res, discard_iterations);
  out.peak_power = res.peak_power;
  out.average_power = res.average_power;
  return out;
}

}  // namespace

ComparisonResult compare_methods(const dag::TaskGraph& graph,
                                 const machine::PowerModel& model,
                                 const machine::ClusterSpec& cluster,
                                 const ComparisonOptions& options,
                                 const core::WindowSweeper* sweeper) {
  ComparisonResult out;
  const int ranks = graph.num_ranks();
  const double socket_cap = options.job_cap_watts / ranks;

  sim::EngineOptions engine;
  engine.cluster = cluster;
  engine.idle_power = model.idle_power();

  // --- LP bound, replayed with overheads (Section 6.1) ---
  core::LpScheduleOptions lp_opt;
  lp_opt.power_cap = options.job_cap_watts;
  lp_opt.simplex = options.simplex;
  const core::WindowedLpResult lp_res =
      sweeper != nullptr
          ? sweeper->solve(lp_opt)
          : core::solve_windowed_lp(graph, model, cluster, lp_opt);
  if (lp_res.optimal()) {
    sim::ReplayOptions replay;
    replay.engine = engine;
    const sim::SimResult replayed =
        sim::replay_schedule(graph, lp_res.schedule, lp_res.frontiers, replay,
                             &lp_res.vertex_time);
    out.lp = from_sim(graph, replayed, options.discard_iterations);
  }

  // The simulations below are bounded (no LP), but a comparison under a
  // wall budget must not start them once the budget is gone.
  const util::Deadline& deadline = options.simplex.deadline;
  if (deadline.stop_reason() != util::StopReason::kNone) return out;

  // --- Static ---
  {
    StaticPolicy policy(model, socket_cap);
    const sim::SimResult res = sim::simulate(graph, policy, engine);
    out.static_alloc = from_sim(graph, res, options.discard_iterations);
  }

  // --- Conductor ---
  if (deadline.stop_reason() == util::StopReason::kNone) {
    ConductorOptions copt = options.conductor;
    copt.exploration_iterations = options.discard_iterations;
    ConductorPolicy policy(model, ranks, options.job_cap_watts, copt);
    const sim::SimResult res = sim::simulate(graph, policy, engine);
    out.conductor = from_sim(graph, res, options.discard_iterations);
  }

  // --- Adagio-only ablation ---
  if (options.run_adagio &&
      deadline.stop_reason() == util::StopReason::kNone) {
    AdagioPolicy policy(model, socket_cap);
    const sim::SimResult res = sim::simulate(graph, policy, engine);
    out.adagio = from_sim(graph, res, options.discard_iterations);
  }

  return out;
}

}  // namespace powerlim::runtime
