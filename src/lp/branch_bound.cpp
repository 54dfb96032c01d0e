#include "lp/branch_bound.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <queue>
#include <vector>

#include "util/log.h"

namespace powerlim::lp {

namespace {

struct Node {
  // Bound overrides accumulated down the tree: (var index, lb, ub).
  std::vector<std::tuple<int, double, double>> bounds;
  double parent_bound;  // relaxation objective of the parent (min sense)
};

struct NodeOrder {
  bool operator()(const std::shared_ptr<Node>& a,
                  const std::shared_ptr<Node>& b) const {
    return a->parent_bound > b->parent_bound;  // best-bound first
  }
};

int most_fractional(const Model& model, const std::vector<double>& x,
                    double tol) {
  int best = -1;
  double best_frac = tol;
  for (std::size_t j = 0; j < model.num_variables(); ++j) {
    if (!model.is_integer(static_cast<int>(j))) continue;
    const double f = x[j] - std::floor(x[j]);
    const double dist = std::min(f, 1.0 - f);
    if (dist > best_frac) {
      best_frac = dist;
      best = static_cast<int>(j);
    }
  }
  return best;
}

}  // namespace

MipSolution solve_mip(const Model& model, const BranchBoundOptions& options) {
  MipSolution out;
  if (!model.has_integers()) {
    const Solution relax = solve_lp(model, options.simplex);
    out.status = relax.status;
    out.objective = relax.objective;
    out.best_bound = relax.objective;
    out.values = relax.values;
    return out;
  }

  const double sense_mult = model.sense() == Sense::kMaximize ? -1.0 : 1.0;

  std::priority_queue<std::shared_ptr<Node>, std::vector<std::shared_ptr<Node>>,
                      NodeOrder>
      open;
  open.push(std::make_shared<Node>(Node{{}, -kInfinity}));

  double incumbent_obj = kInfinity;  // in minimization space
  std::vector<double> incumbent;
  bool any_feasible_relaxation = false;
  bool hit_limit = false;
  // Set when the wall-clock budget or a cancellation stops the search;
  // reported in preference to kIterationLimit (the relaxations below
  // also observe the same deadline at pivot granularity).
  SolveStatus stopped = SolveStatus::kOptimal;

  while (!open.empty()) {
    if (out.nodes >= options.max_nodes) {
      hit_limit = true;
      break;
    }
    const util::StopReason reason = options.simplex.deadline.stop_reason();
    if (reason != util::StopReason::kNone) {
      hit_limit = true;
      stopped = reason == util::StopReason::kCancelled
                    ? SolveStatus::kCancelled
                    : SolveStatus::kDeadlineExceeded;
      break;
    }
    auto node = open.top();
    open.pop();
    ++out.nodes;

    if (node->parent_bound >= incumbent_obj - options.relative_gap *
                                                  (1.0 + std::abs(incumbent_obj))) {
      continue;  // cannot improve
    }

    Model sub = model;  // clone, then tighten bounds along the path
    bool conflict = false;
    for (const auto& [var, lb, ub] : node->bounds) {
      const double new_lb = std::max(lb, sub.variable_lb(var));
      const double new_ub = std::min(ub, sub.variable_ub(var));
      if (new_lb > new_ub) {
        conflict = true;
        break;
      }
      sub.set_variable_bounds(Variable{var}, new_lb, new_ub);
    }
    if (conflict) continue;

    const Solution relax = solve_lp(sub, options.simplex);
    if (relax.status == SolveStatus::kInfeasible) continue;
    if (relax.status == SolveStatus::kUnbounded) {
      out.status = SolveStatus::kUnbounded;
      return out;
    }
    if (relax.status == SolveStatus::kDeadlineExceeded ||
        relax.status == SolveStatus::kCancelled) {
      hit_limit = true;
      stopped = relax.status;
      break;
    }
    if (relax.status != SolveStatus::kOptimal) {
      util::log_warn() << "branch&bound: relaxation " << to_string(relax.status);
      continue;
    }
    any_feasible_relaxation = true;
    const double bound = sense_mult * relax.objective;
    if (bound >= incumbent_obj -
                     options.relative_gap * (1.0 + std::abs(incumbent_obj))) {
      continue;
    }

    const int branch_var =
        most_fractional(sub, relax.values, options.integrality_tol);
    if (branch_var < 0) {
      // Integral: candidate incumbent.
      if (bound < incumbent_obj) {
        incumbent_obj = bound;
        incumbent = relax.values;
        // Snap integer values exactly.
        for (std::size_t j = 0; j < model.num_variables(); ++j) {
          if (model.is_integer(static_cast<int>(j))) {
            incumbent[j] = std::round(incumbent[j]);
          }
        }
      }
      continue;
    }

    const double v = relax.values[branch_var];
    auto down = std::make_shared<Node>(*node);
    down->parent_bound = bound;
    down->bounds.emplace_back(branch_var, -kInfinity, std::floor(v));
    auto up = std::make_shared<Node>(*node);
    up->parent_bound = bound;
    up->bounds.emplace_back(branch_var, std::ceil(v), kInfinity);
    open.push(std::move(down));
    open.push(std::move(up));
  }

  if (!incumbent.empty()) {
    out.values = std::move(incumbent);
    out.objective = sense_mult * incumbent_obj;
    double bound = incumbent_obj;
    if (hit_limit && !open.empty()) {
      bound = open.top()->parent_bound;
    }
    out.best_bound = sense_mult * bound;
    out.status = !hit_limit ? SolveStatus::kOptimal
                 : stopped != SolveStatus::kOptimal
                     ? stopped
                     : SolveStatus::kIterationLimit;
    return out;
  }
  (void)any_feasible_relaxation;
  out.status = !hit_limit ? SolveStatus::kInfeasible
               : stopped != SolveStatus::kOptimal
                   ? stopped
                   : SolveStatus::kIterationLimit;
  return out;
}

}  // namespace powerlim::lp
