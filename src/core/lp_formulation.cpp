#include "core/lp_formulation.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "core/pareto.h"
#include "lp/model.h"

namespace powerlim::core {

using lp::Model;
using lp::Term;
using lp::Variable;

LpFormulation::LpFormulation(const dag::TaskGraph& graph,
                             const machine::PowerModel& model,
                             const machine::ClusterSpec& cluster,
                             const FormulationHooks* hooks)
    : graph_(&graph), model_(&model), cluster_(&cluster) {
  graph.validate();
  frontiers_.resize(graph.num_edges());
  message_duration_.assign(graph.num_edges(), 0.0);
  std::vector<double> fastest(graph.num_edges(), 0.0);
  for (const dag::Edge& e : graph.edges()) {
    if (e.is_task()) {
      frontiers_[e.id] = convex_frontier(model.enumerate(e.work, e.rank));
      if (hooks != nullptr && hooks->frontier) {
        hooks->frontier(e.id, frontiers_[e.id]);
      }
      if (frontiers_[e.id].empty()) {
        throw EmptyFrontierError(e.id);
      }
      // Fastest = minimum duration = last frontier point.
      fastest[e.id] = frontiers_[e.id].back().duration;
    } else {
      message_duration_[e.id] = cluster.message_seconds(e.bytes);
      fastest[e.id] = message_duration_[e.id];
    }
  }
  // Initial power-unconstrained schedule (paper 3.3): every task at its
  // fastest configuration. Task activity intervals already absorb slack
  // because activity is [src event, dst event) by construction.
  initial_ = asap_schedule(graph, fastest);
  events_ = build_event_order(graph, initial_);
}

double LpFormulation::min_feasible_power() const {
  double worst = 0.0;
  for (std::size_t g = 0; g < events_.num_groups(); ++g) {
    double total = 0.0;
    for (int eid : events_.active_tasks[g]) {
      // Cheapest frontier point is the first (lowest power).
      total += frontiers_[eid].front().power;
    }
    worst = std::max(worst, total);
  }
  return worst;
}

BuiltModel LpFormulation::build_model(const LpScheduleOptions& options) const {
  const dag::TaskGraph& graph = *graph_;

  const bool energy_mode = options.objective == LpObjective::kEnergy;
  if (energy_mode && options.max_makespan <= 0.0) {
    throw std::invalid_argument(
        "LpFormulation: kEnergy requires a positive max_makespan");
  }

  BuiltModel built;
  built.model = Model(lp::Sense::kMinimize);
  built.duration_row_of_edge.assign(graph.num_edges(), -1);
  built.convexity_row_of_edge.assign(graph.num_edges(), -1);
  built.power_row_of_group.assign(events_.num_groups(), -1);
  Model& lp_model = built.model;

  // Vertex-time variables; in makespan mode only Finalize carries
  // objective weight (eq. 1). An optional deadline caps Finalize either
  // way (the energy objective requires one).
  std::vector<Variable>& v = built.vertex_var;
  v.resize(graph.num_vertices());
  for (std::size_t j = 0; j < graph.num_vertices(); ++j) {
    const bool is_init = static_cast<int>(j) == graph.init_vertex();
    const bool is_fin = static_cast<int>(j) == graph.finalize_vertex();
    double ub = is_init ? 0.0 : lp::kInfinity;
    if (is_fin && options.max_makespan > 0.0) ub = options.max_makespan;
    // v_init = 0 (eq. 2) via fixed bounds.
    v[j] = lp_model.add_variable(0.0, ub,
                                 (is_fin && !energy_mode) ? 1.0 : 0.0,
                                 "v" + std::to_string(j));
  }

  // Configuration share variables c_ik (eq. 6 continuous / eq. 5
  // discrete). In energy mode each share costs its execution energy.
  std::vector<std::vector<Variable>>& c = built.share_var;
  c.resize(graph.num_edges());
  for (const dag::Edge& e : graph.edges()) {
    if (!e.is_task()) continue;
    c[e.id].reserve(frontiers_[e.id].size());
    for (std::size_t k = 0; k < frontiers_[e.id].size(); ++k) {
      const std::string name =
          "c" + std::to_string(e.id) + "_" + std::to_string(k);
      const machine::Config& cfg = frontiers_[e.id][k];
      const double obj = energy_mode ? cfg.duration * cfg.power : 0.0;
      c[e.id].push_back(options.discrete
                            ? lp_model.add_integer_variable(0, 1, obj, name)
                            : lp_model.add_variable(0, 1, obj, name));
    }
  }

  // Task duration rows (eqs. 3, 4, 7 combined) and message rows.
  for (const dag::Edge& e : graph.edges()) {
    if (e.is_task()) {
      std::vector<Term> terms{{v[e.dst], 1.0}, {v[e.src], -1.0}};
      for (std::size_t k = 0; k < c[e.id].size(); ++k) {
        terms.push_back({c[e.id][k], -frontiers_[e.id][k].duration});
      }
      built.duration_row_of_edge[e.id] =
          lp_model.add_ge(terms, 0.0, "dur" + std::to_string(e.id)).index;
    } else {
      built.duration_row_of_edge[e.id] =
          lp_model
              .add_ge({{v[e.dst], 1.0}, {v[e.src], -1.0}},
                      message_duration_[e.id], "msg" + std::to_string(e.id))
              .index;
    }
  }

  // Each task completes exactly once (eq. 9).
  for (const dag::Edge& e : graph.edges()) {
    if (!e.is_task()) continue;
    std::vector<Term> terms;
    for (const Variable& var : c[e.id]) terms.push_back({var, 1.0});
    built.convexity_row_of_edge[e.id] =
        lp_model.add_eq(terms, 1.0, "one" + std::to_string(e.id)).index;
  }

  // Event power rows (eqs. 8, 10, 11 combined): sum of active task power
  // at each event group must fit under the job-level cap.
  for (std::size_t g = 0; g < events_.num_groups(); ++g) {
    if (events_.active_tasks[g].empty()) continue;
    std::vector<Term> terms;
    for (int eid : events_.active_tasks[g]) {
      for (std::size_t k = 0; k < c[eid].size(); ++k) {
        terms.push_back({c[eid][k], frontiers_[eid][k].power});
      }
    }
    built.power_row_of_group[g] =
        lp_model.add_le(terms, options.power_cap, "pow" + std::to_string(g))
            .index;
  }

  // Event-order rows (eqs. 12, 13): chain group leaders; pin group members
  // to their leader.
  for (std::size_t g = 0; g < events_.num_groups(); ++g) {
    const int leader = events_.groups[g].front();
    for (std::size_t m = 1; m < events_.groups[g].size(); ++m) {
      lp_model.add_eq({{v[events_.groups[g][m]], 1.0}, {v[leader], -1.0}},
                      0.0);
    }
    if (g > 0) {
      const int prev_leader = events_.groups[g - 1].front();
      lp_model.add_ge({{v[leader], 1.0}, {v[prev_leader], -1.0}}, 0.0);
    }
  }
  return built;
}

LpScheduleResult LpFormulation::solve(const LpScheduleOptions& options) const {
  const dag::TaskGraph& graph = *graph_;
  LpScheduleResult out;
  const bool energy_mode = options.objective == LpObjective::kEnergy;

  BuiltModel built = build_model(options);
  Model& lp_model = built.model;
  const std::vector<Variable>& v = built.vertex_var;
  const std::vector<std::vector<Variable>>& c = built.share_var;

  // Solve.
  if (options.mutate_model) options.mutate_model(lp_model);
  std::vector<double> values;
  if (options.discrete) {
    lp::BranchBoundOptions bb = options.branch_bound;
    bb.simplex = options.simplex;
    const lp::MipSolution sol = lp::solve_mip(lp_model, bb);
    out.status = sol.status;
    out.iterations = sol.nodes;
    if (!sol.optimal()) return out;
    values = sol.values;
  } else {
    const lp::Solution sol = lp::solve_lp(lp_model, options.simplex);
    out.status = sol.status;
    out.iterations = sol.iterations;
    out.degenerate_pivots = sol.degenerate_pivots;
    out.refactor_count = sol.refactor_count;
    out.bland_engaged = sol.bland_engaged;
    out.primal_infeasibility = sol.primal_infeasibility;
    out.eta_nonzeros = sol.stats.eta_nonzeros;
    out.lu_fill_ratio = sol.stats.lu_fill_ratio;
    if (!sol.optimal()) return out;
    values = sol.values;
    out.row_duals = sol.duals;
    // Duals of the power rows price the cap: raising every row's bound by
    // one watt changes the (minimized) objective by the sum of their
    // duals, which is <= 0 for binding <= rows. Only meaningful for the
    // makespan objective.
    if (!energy_mode && !sol.duals.empty()) {
      double total = 0.0;
      for (int row : built.power_row_of_group) {
        if (row >= 0) total += sol.duals[row];
      }
      out.power_price_s_per_watt = std::max(0.0, -total);
    }
  }
  out.makespan = values[v[graph.finalize_vertex()].index];

  // Extract schedule.
  out.vertex_time.resize(graph.num_vertices());
  for (std::size_t j = 0; j < graph.num_vertices(); ++j) {
    out.vertex_time[j] = values[v[j].index];
  }
  out.schedule.shares.assign(graph.num_edges(), {});
  out.schedule.duration.assign(graph.num_edges(), 0.0);
  out.schedule.power.assign(graph.num_edges(), 0.0);
  for (const dag::Edge& e : graph.edges()) {
    if (!e.is_task()) {
      out.schedule.duration[e.id] = message_duration_[e.id];
      continue;
    }
    auto& shares = out.schedule.shares[e.id];
    double total = 0.0;
    for (std::size_t k = 0; k < c[e.id].size(); ++k) {
      const double frac = values[c[e.id][k].index];
      if (frac > 1e-9) {
        shares.push_back({static_cast<int>(k), frac});
        total += frac;
      }
    }
    if (shares.empty() || std::abs(total - 1.0) > 1e-5) {
      throw std::runtime_error("LP produced inconsistent shares for task " +
                               std::to_string(e.id));
    }
    for (ConfigShare& s : shares) s.fraction /= total;
  }
  blend(out.schedule, frontiers_);

  // Event powers for diagnostics / validation.
  out.event_power.assign(events_.num_groups(), 0.0);
  for (std::size_t g = 0; g < events_.num_groups(); ++g) {
    for (int eid : events_.active_tasks[g]) {
      out.event_power[g] += out.schedule.power[eid];
    }
  }
  // Execution energy of the chosen schedule (the objective in kEnergy
  // mode; informative otherwise).
  for (const dag::Edge& e : graph.edges()) {
    if (!e.is_task()) continue;
    for (const ConfigShare& s : out.schedule.shares[e.id]) {
      const machine::Config& cfg = frontiers_[e.id][s.config_index];
      out.energy_joules += s.fraction * cfg.duration * cfg.power;
    }
  }
  return out;
}

}  // namespace powerlim::core
