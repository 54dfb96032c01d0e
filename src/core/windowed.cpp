#include "core/windowed.h"

#include <algorithm>
#include <memory>
#include <stdexcept>

#include "dag/windows.h"

namespace powerlim::core {

struct WindowSweeper::Impl {
  const dag::TaskGraph* graph;
  std::vector<dag::Window> windows;
  std::vector<std::unique_ptr<LpFormulation>> forms;

  double min_feasible_power() const {
    double worst = 0.0;
    for (const auto& form : forms) {
      worst = std::max(worst, form->min_feasible_power());
    }
    return worst;
  }

  /// The windowed loop: solves each window under `options_for(form)` and
  /// stitches the results back onto the original edge and vertex ids.
  /// Stops at the first window that does not solve to optimality.
  template <typename OptionsFor>
  WindowedLpResult solve(OptionsFor&& options_for) const;
};

template <typename OptionsFor>
WindowedLpResult WindowSweeper::Impl::solve(OptionsFor&& options_for) const {
  WindowedLpResult out;
  out.schedule.shares.assign(graph->num_edges(), {});
  out.schedule.duration.assign(graph->num_edges(), 0.0);
  out.schedule.power.assign(graph->num_edges(), 0.0);
  out.vertex_time.assign(graph->num_vertices(), 0.0);
  out.frontiers.resize(graph->num_edges());
  out.min_feasible_power = min_feasible_power();

  double offset = 0.0;
  for (std::size_t w = 0; w < windows.size(); ++w) {
    const dag::Window& win = windows[w];
    const LpFormulation& form = *forms[w];
    const LpScheduleResult res = form.solve(options_for(form));
    out.iterations += res.iterations;
    out.energy_joules += res.energy_joules;
    out.power_price_s_per_watt += res.power_price_s_per_watt;
    out.degenerate_pivots += res.degenerate_pivots;
    out.refactor_count += res.refactor_count;
    out.bland_engaged = out.bland_engaged || res.bland_engaged;
    out.primal_infeasibility =
        std::max(out.primal_infeasibility, res.primal_infeasibility);
    out.eta_nonzeros += res.eta_nonzeros;
    out.lu_fill_ratio = std::max(out.lu_fill_ratio, res.lu_fill_ratio);
    out.window_duals.push_back(res.row_duals);
    if (!res.optimal()) {
      out.status = res.status;
      out.failed_window = static_cast<int>(w);
      return out;
    }
    for (std::size_t wv = 0; wv < win.graph.num_vertices(); ++wv) {
      out.vertex_time[win.vertex_map[wv]] = offset + res.vertex_time[wv];
    }
    for (std::size_t we = 0; we < win.graph.num_edges(); ++we) {
      const int orig = win.edge_map[we];
      out.schedule.shares[orig] = res.schedule.shares[we];
      out.schedule.duration[orig] = res.schedule.duration[we];
      out.schedule.power[orig] = res.schedule.power[we];
      out.frontiers[orig] = form.frontiers()[we];
    }
    for (double p : res.event_power) {
      out.peak_event_power = std::max(out.peak_event_power, p);
    }
    offset += res.makespan;
  }
  out.makespan = offset;
  out.status = lp::SolveStatus::kOptimal;
  return out;
}

WindowSweeper::WindowSweeper(const dag::TaskGraph& graph,
                             const machine::PowerModel& model,
                             const machine::ClusterSpec& cluster,
                             const FormulationHooks* hooks)
    : impl_(std::make_unique<Impl>()) {
  impl_->graph = &graph;
  impl_->windows = dag::split_at_barriers(graph);
  impl_->forms.reserve(impl_->windows.size());
  for (const dag::Window& win : impl_->windows) {
    impl_->forms.push_back(
        std::make_unique<LpFormulation>(win.graph, model, cluster, hooks));
  }
}

WindowSweeper::~WindowSweeper() = default;
WindowSweeper::WindowSweeper(WindowSweeper&&) noexcept = default;
WindowSweeper& WindowSweeper::operator=(WindowSweeper&&) noexcept = default;

std::size_t WindowSweeper::num_windows() const {
  return impl_->windows.size();
}

double WindowSweeper::min_feasible_power() const {
  return impl_->min_feasible_power();
}

double WindowSweeper::unconstrained_makespan() const {
  double total = 0.0;
  for (const auto& form : impl_->forms) {
    total += form->unconstrained_makespan();
  }
  return total;
}

WindowedLpResult WindowSweeper::solve(const LpScheduleOptions& options) const {
  return impl_->solve([&](const LpFormulation&) -> const LpScheduleOptions& {
    return options;
  });
}

WindowedLpResult solve_windowed_lp(const dag::TaskGraph& graph,
                                   const machine::PowerModel& model,
                                   const machine::ClusterSpec& cluster,
                                   const LpScheduleOptions& options) {
  return WindowSweeper(graph, model, cluster).solve(options);
}

WindowedLpResult solve_windowed_energy_lp(const dag::TaskGraph& graph,
                                          const machine::PowerModel& model,
                                          const machine::ClusterSpec& cluster,
                                          double slowdown_allowance,
                                          double power_cap) {
  if (slowdown_allowance < 0.0) {
    throw std::invalid_argument("solve_windowed_energy_lp: allowance < 0");
  }
  const WindowSweeper sweeper(graph, model, cluster);
  // Each window's deadline comes from that window's own unconstrained
  // optimum.
  return sweeper.impl_->solve([&](const LpFormulation& form) {
    LpScheduleOptions o;
    o.power_cap = power_cap;
    o.objective = LpObjective::kEnergy;
    o.max_makespan =
        (1.0 + slowdown_allowance) * form.unconstrained_makespan();
    return o;
  });
}

}  // namespace powerlim::core
