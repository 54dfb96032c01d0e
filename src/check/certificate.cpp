// powerlint: allow-file(float-in-exact) -- this TU converts solver doubles to Dyadic at its edges (from_double on ingest, to_double only for report text); the comparison path is exact throughout
#include "check/certificate.h"

#include <cmath>
#include <sstream>
#include <vector>

#include "check/rational.h"
#include "core/lp_formulation.h"
#include "dag/windows.h"
#include "lp/model.h"

namespace powerlim::check {

namespace {

using core::LpFormulation;

/// Fixed rule order so reports are deterministic.
const char* const kRules[] = {"structure",      "frontier-membership",
                              "share-weights",  "precedence",
                              "event-cap",      "event-order",
                              "objective",      "weak-duality"};

/// Aggregates per-rule verdicts across windows.
class Rules {
 public:
  Rules() {
    for (const char* rule : kRules) checks_.push_back({rule, true, 0.0, ""});
  }

  void fail(const std::string& rule, double violation, std::string detail) {
    CertificateCheck& c = find(rule);
    if (c.ok || violation > c.violation) c.violation = violation;
    if (c.ok) c.detail = std::move(detail);
    c.ok = false;
  }

  bool ok(const std::string& rule) { return find(rule).ok; }

  CertificateVerdict finish(bool duality_checked, double duality_gap) {
    CertificateVerdict v;
    v.checked = true;
    v.duality_checked = duality_checked;
    v.duality_gap = duality_gap;
    v.ok = true;
    for (CertificateCheck& c : checks_) {
      if (!c.ok) {
        if (v.detail.empty()) v.detail = "[" + c.rule + "] " + c.detail;
        v.ok = false;
      }
      if (c.rule != "weak-duality") {
        v.max_violation = std::max(v.max_violation, c.violation);
      }
    }
    v.checks = std::move(checks_);
    return v;
  }

 private:
  CertificateCheck& find(const std::string& rule) {
    for (CertificateCheck& c : checks_) {
      if (c.rule == rule) return c;
    }
    checks_.push_back({rule, true, 0.0, ""});
    return checks_.back();
  }

  std::vector<CertificateCheck> checks_;
};

std::string fmt(double v) {
  std::ostringstream os;
  os << v;
  return os.str();
}

/// Scratch for the weak-duality check. It belongs to one verify() call
/// and is refilled for each window, so no state outlives the call.
struct DualityScratch {
  /// Transpose of the rows whose sanitized dual is nonzero: column j's
  /// entries are [start[j], start[j + 1]), each the row's dual y and the
  /// coefficient a.
  std::vector<std::size_t> start;
  std::vector<std::size_t> next;
  std::vector<double> y;
  std::vector<double> a;
  /// One column's reduced cost c_j - sum_i y_i a_ij, reused per column.
  ExactAccumulator z;
  /// The window's Lagrangian bound g(y).
  ExactAccumulator g;
  /// The window-local primal point, x_j = x[j] - x_offset[j].
  std::vector<double> x;
  std::vector<double> x_offset;
};

/// Sums g(y) = sum_i y_i * picked_row_bound + box-min of (c - A'y)'x
/// into d.g, exactly. Sign-inconsistent duals are zeroed: any
/// multiplier vector gives a valid Lagrangian bound, so sanitizing never
/// produces a false certificate - only (deservedly) a weak one.
///
/// The reduced costs c - A'y are summed column by column over the
/// transpose of the dual-weighted rows, so one accumulator serves every
/// column in turn: its sign picks the bound, and it is scaled by that
/// bound straight into g. Vertex-time columns without a finite upper
/// bound are boxed at `box`. Returns false when a column with a positive
/// reduced cost has no finite lower bound.
bool lagrangian_bound(const lp::Model& m, const std::vector<double>& duals,
                      double box, DualityScratch& d) {
  // Non-finite and sign-inconsistent duals count as zero.
  const auto dual = [&m, &duals](std::size_t i) {
    const double yi = duals[i];
    if (!std::isfinite(yi)) return 0.0;
    if (yi > 0.0 && !lp::is_finite_bound(m.row_lb(i))) return 0.0;
    if (yi < 0.0 && !lp::is_finite_bound(m.row_ub(i))) return 0.0;
    return yi;
  };
  const std::size_t n = m.num_variables();
  d.g.clear();
  d.start.assign(n + 1, 0);
  for (std::size_t i = 0; i < m.num_constraints(); ++i) {
    if (dual(i) == 0.0) continue;
    const lp::Model::RowView row = m.row(static_cast<int>(i));
    for (std::size_t t = 0; t < row.size; ++t) ++d.start[row.idx[t] + 1];
  }
  for (std::size_t j = 0; j < n; ++j) d.start[j + 1] += d.start[j];
  d.next.assign(d.start.begin(), d.start.end() - 1);
  d.y.resize(d.start[n]);
  d.a.resize(d.start[n]);
  for (std::size_t i = 0; i < m.num_constraints(); ++i) {
    const double yi = dual(i);
    if (yi == 0.0) continue;
    d.g.add_product(yi, yi > 0.0 ? m.row_lb(i) : m.row_ub(i));
    const lp::Model::RowView row = m.row(static_cast<int>(i));
    for (std::size_t t = 0; t < row.size; ++t) {
      const std::size_t k = d.next[row.idx[t]]++;
      d.y[k] = yi;
      d.a[k] = row.coeff[t];
    }
  }
  ExactAccumulator& z = d.z;
  for (std::size_t j = 0; j < n; ++j) {
    z.clear();
    z.add(m.objective_coeff(static_cast<int>(j)));
    for (std::size_t k = d.start[j]; k < d.start[j + 1]; ++k) {
      z.add_product(-d.y[k], d.a[k]);
    }
    const int s = z.sign();
    if (s == 0) continue;
    if (s > 0) {
      const double lb = m.variable_lb(static_cast<int>(j));
      if (!lp::is_finite_bound(lb)) return false;
      d.g.add_scaled(z, lb);
    } else {
      const double ub = m.variable_ub(static_cast<int>(j));
      d.g.add_scaled(z, lp::is_finite_bound(ub) ? ub : box);
    }
  }
  return true;
}

bool same_config(const machine::Config& a, const machine::Config& b) {
  // Bitwise-equal doubles: both sides come from the same deterministic
  // model evaluation, so any difference means tampering or corruption.
  return a.ghz == b.ghz && a.threads == b.threads &&
         a.duration == b.duration && a.power == b.power;
}

}  // namespace

struct CertificateChecker::Impl {
  const dag::TaskGraph* graph;
  const machine::PowerModel* model;
  const machine::ClusterSpec* cluster;
  CertificateOptions options;
  std::vector<dag::Window> windows;
  /// Independent per-window formulations: frontiers and event orders
  /// re-derived from the machine model with no hooks in the path.
  std::vector<std::unique_ptr<LpFormulation>> forms;
};

CertificateChecker::CertificateChecker(const dag::TaskGraph& graph,
                                       const machine::PowerModel& model,
                                       const machine::ClusterSpec& cluster,
                                       CertificateOptions options)
    : impl_(std::make_unique<Impl>()) {
  impl_->graph = &graph;
  impl_->model = &model;
  impl_->cluster = &cluster;
  impl_->options = options;
  impl_->windows = dag::split_at_barriers(graph);
  impl_->forms.reserve(impl_->windows.size());
  for (const dag::Window& win : impl_->windows) {
    impl_->forms.push_back(
        std::make_unique<LpFormulation>(win.graph, model, cluster));
  }
}

CertificateChecker::~CertificateChecker() = default;
CertificateChecker::CertificateChecker(CertificateChecker&&) noexcept =
    default;
CertificateChecker& CertificateChecker::operator=(
    CertificateChecker&&) noexcept = default;

CertificateVerdict CertificateChecker::verify(
    const core::WindowedLpResult& result, double job_cap_watts,
    double effective_cap_watts) const {
  const Impl& im = *impl_;
  const dag::TaskGraph& graph = *im.graph;
  Rules rules;

  // Structure: the result must be shaped like this graph at all, or no
  // deeper check is meaningful.
  if (!result.optimal()) {
    rules.fail("structure", 0.0, "solution status is not optimal");
  }
  if (result.vertex_time.size() != graph.num_vertices() ||
      result.schedule.shares.size() != graph.num_edges() ||
      result.frontiers.size() != graph.num_edges()) {
    rules.fail("structure", 0.0,
               "solution arrays do not match the trace's shape");
  }
  for (double t : result.vertex_time) {
    if (!std::isfinite(t)) {
      rules.fail("structure", 0.0, "non-finite vertex time");
      break;
    }
  }
  if (!std::isfinite(result.makespan)) {
    rules.fail("structure", 0.0, "non-finite makespan");
  }
  if (!rules.ok("structure")) return rules.finish(false, 0.0);

  const Dyadic tol = Dyadic::from_double(im.options.feasibility_tol);
  const Dyadic neg_tol = -tol;
  const Dyadic one = Dyadic::from_int(1);
  const Dyadic share_hi = one + tol;

  // Blended per-edge duration and power, recomputed exactly from the
  // independent frontiers (never from result.schedule.duration/power).
  std::vector<Dyadic> edge_duration(graph.num_edges());
  std::vector<Dyadic> edge_power(graph.num_edges());

  // Every long sum goes through an ExactAccumulator; the scratch below
  // belongs to this call and is reused across tasks and windows.
  ExactAccumulator acc;
  ExactAccumulator acc_dur;
  ExactAccumulator acc_pow;
  DualityScratch duality;

  bool duals_available = !result.window_duals.empty();
  Dyadic total_gap;
  Dyadic total_obj;

  for (std::size_t w = 0; w < im.windows.size(); ++w) {
    const dag::Window& win = im.windows[w];
    const LpFormulation& form = *im.forms[w];

    // Frontier membership + share weights + blended values per edge.
    for (std::size_t we = 0; we < win.graph.num_edges(); ++we) {
      const int orig = win.edge_map[we];
      const dag::Edge& e = graph.edge(orig);
      const std::vector<machine::Config>& truth = form.frontiers()[we];
      const std::vector<machine::Config>& claimed = result.frontiers[orig];
      if (!e.is_task()) {
        edge_duration[orig] =
            Dyadic::from_double(im.cluster->message_seconds(e.bytes));
        continue;
      }
      if (claimed.size() != truth.size()) {
        rules.fail("frontier-membership",
                   std::abs(static_cast<double>(claimed.size()) -
                            static_cast<double>(truth.size())),
                   "task " + std::to_string(orig) + " frontier has " +
                       std::to_string(claimed.size()) + " points, expected " +
                       std::to_string(truth.size()));
      } else {
        for (std::size_t k = 0; k < truth.size(); ++k) {
          if (!same_config(claimed[k], truth[k])) {
            rules.fail("frontier-membership", 0.0,
                       "task " + std::to_string(orig) + " frontier point " +
                           std::to_string(k) +
                           " differs from the machine model's frontier");
            break;
          }
        }
      }

      acc.clear();
      acc_dur.clear();
      acc_pow.clear();
      bool shares_ok = true;
      for (const core::ConfigShare& s :
           result.schedule.shares[orig]) {
        if (s.config_index < 0 ||
            s.config_index >= static_cast<int>(truth.size())) {
          rules.fail("share-weights", 0.0,
                     "task " + std::to_string(orig) +
                         " references config index " +
                         std::to_string(s.config_index) +
                         " outside its frontier");
          shares_ok = false;
          break;
        }
        if (!std::isfinite(s.fraction)) {
          rules.fail("share-weights", 0.0,
                     "task " + std::to_string(orig) +
                         " has a non-finite share fraction");
          shares_ok = false;
          break;
        }
        const Dyadic frac = Dyadic::from_double(s.fraction);
        if (frac < neg_tol || frac > share_hi) {
          rules.fail("share-weights", std::abs(s.fraction),
                     "task " + std::to_string(orig) +
                         " share fraction " + fmt(s.fraction) +
                         " outside [0, 1]");
        }
        acc.add(s.fraction);
        const machine::Config& cfg = truth[s.config_index];
        acc_dur.add_product(s.fraction, cfg.duration);
        acc_pow.add_product(s.fraction, cfg.power);
      }
      if (!shares_ok) continue;
      const Dyadic sum = acc.to_dyadic();
      const Dyadic dev = (sum - one).abs();
      if (result.schedule.shares[orig].empty() || dev > tol) {
        rules.fail("share-weights", dev.to_double(),
                   "task " + std::to_string(orig) +
                       " share weights sum to " + fmt(sum.to_double()) +
                       ", not 1");
      }
      edge_duration[orig] = acc_dur.to_dyadic();
      edge_power[orig] = acc_pow.to_dyadic();
    }

    // Precedence: v_dst - v_src >= blended duration, for every edge.
    for (std::size_t we = 0; we < win.graph.num_edges(); ++we) {
      const int orig = win.edge_map[we];
      const dag::Edge& e = graph.edge(orig);
      acc.clear();
      acc.add(result.vertex_time[e.dst]);
      acc.add(-result.vertex_time[e.src]);
      acc.add(-edge_duration[orig]);
      const Dyadic slack = acc.to_dyadic();
      if (slack < neg_tol) {
        rules.fail("precedence", (-slack).to_double(),
                   (e.is_task() ? "task " : "message ") +
                       std::to_string(orig) + " finishes " +
                       fmt((-slack).to_double()) +
                       " s before its duration allows");
      }
    }

    // Power cap at every event: the task-activity sets are re-derived by
    // this checker's own formulation of the window.
    const core::EventOrder& events = form.events();
    for (std::size_t g = 0; g < events.num_groups(); ++g) {
      acc.clear();
      acc.add(-job_cap_watts);
      for (int weid : events.active_tasks[g]) {
        acc.add(edge_power[win.edge_map[weid]]);
      }
      const Dyadic excess = acc.to_dyadic();
      if (excess > tol) {
        const Dyadic total = excess + Dyadic::from_double(job_cap_watts);
        rules.fail("event-cap", excess.to_double(),
                   "window " + std::to_string(w) + " event " +
                       std::to_string(g) + " draws " +
                       fmt(total.to_double()) + " W, " +
                       fmt(excess.to_double()) + " W over the cap");
      }
    }

    // Event order: group leaders non-decreasing, members pinned to their
    // leader, nothing before the window's start.
    const Dyadic offset = Dyadic::from_double(
        result.vertex_time[win.vertex_map[win.graph.init_vertex()]]);
    Dyadic prev_leader;
    for (std::size_t g = 0; g < events.num_groups(); ++g) {
      const Dyadic leader = Dyadic::from_double(
          result.vertex_time[win.vertex_map[events.groups[g].front()]]);
      if (g > 0 && leader < prev_leader - tol) {
        rules.fail("event-order", (prev_leader - leader).to_double(),
                   "window " + std::to_string(w) + " event " +
                       std::to_string(g) + " fires before its predecessor");
      }
      if (leader < offset - tol) {
        rules.fail("event-order", (offset - leader).to_double(),
                   "window " + std::to_string(w) + " event " +
                       std::to_string(g) + " fires before the window opens");
      }
      for (std::size_t m = 1; m < events.groups[g].size(); ++m) {
        const Dyadic member = Dyadic::from_double(
            result.vertex_time[win.vertex_map[events.groups[g][m]]]);
        if ((member - leader).abs() > tol) {
          rules.fail("event-order", (member - leader).abs().to_double(),
                     "window " + std::to_string(w) +
                         " simultaneous vertices drifted apart at event " +
                         std::to_string(g));
        }
      }
      prev_leader = leader;
    }

    // Weak duality for this window (LP solves only; see header).
    const std::vector<double>* duals = nullptr;
    if (w < result.window_duals.size() &&
        !result.window_duals[w].empty()) {
      duals = &result.window_duals[w];
    } else {
      duals_available = false;
    }
    if (duals != nullptr && rules.ok("weak-duality")) {
      core::LpScheduleOptions build_options;
      build_options.power_cap = effective_cap_watts;
      const core::BuiltModel built = form.build_model(build_options);
      const lp::Model& m = built.model;
      if (duals->size() != m.num_constraints()) {
        rules.fail("weak-duality", 0.0,
                   "window " + std::to_string(w) + " has " +
                       std::to_string(duals->size()) +
                       " duals for " + std::to_string(m.num_constraints()) +
                       " constraint rows");
      } else {
        // Vertex-time variables have no finite upper bound in the model,
        // but every feasible point keeps them at or below the Finalize
        // time (event-order rows), so boxing them at H > the claimed
        // window makespan preserves the optimum (FORMULATION.md).
        const double claimed_span =
            result.vertex_time[win.vertex_map[win.graph.finalize_vertex()]] -
            result.vertex_time[win.vertex_map[win.graph.init_vertex()]];
        const double box = 2.0 * std::max(0.0, claimed_span) + 1.0;
        if (!lagrangian_bound(m, *duals, box, duality)) {
          rules.fail("weak-duality", 0.0,
                     "variable with infinite lower bound");
        } else {
          // c'x at the window-local primal point: vertex times rebased
          // to the window (x_j = time - offset), share fractions (absent
          // shares are zero).
          duality.x.assign(m.num_variables(), 0.0);
          duality.x_offset.assign(m.num_variables(), 0.0);
          const double start_time =
              result.vertex_time[win.vertex_map[win.graph.init_vertex()]];
          for (std::size_t j = 0; j < built.vertex_var.size(); ++j) {
            const int col = built.vertex_var[j].index;
            duality.x[col] = result.vertex_time[win.vertex_map[j]];
            duality.x_offset[col] = start_time;
          }
          for (std::size_t we = 0; we < win.graph.num_edges(); ++we) {
            const int orig = win.edge_map[we];
            for (const core::ConfigShare& s :
                 result.schedule.shares[orig]) {
              if (s.config_index >= 0 &&
                  s.config_index <
                      static_cast<int>(built.share_var[we].size())) {
                duality.x[built.share_var[we][s.config_index].index] =
                    s.fraction;
              }
            }
          }
          acc.clear();
          for (std::size_t j = 0; j < m.num_variables(); ++j) {
            const double cj = m.objective_coeff(static_cast<int>(j));
            if (cj == 0.0) continue;
            acc.add_product(cj, duality.x[j]);
            acc.add_product(-cj, duality.x_offset[j]);
          }
          const Dyadic obj = acc.to_dyadic();
          Dyadic gap = obj - duality.g.to_dyadic();
          if (gap.sign() < 0) gap = Dyadic();
          total_gap += gap;
          total_obj += obj;
        }
      }
    }
  }

  // Objective consistency: the reported makespan is the Finalize time,
  // and the job starts at t = 0.
  const Dyadic t_init =
      Dyadic::from_double(result.vertex_time[graph.init_vertex()]);
  if (t_init.abs() > tol) {
    rules.fail("objective", t_init.abs().to_double(),
               "Init fires at " + fmt(t_init.to_double()) + " s, not 0");
  }
  const Dyadic t_fin =
      Dyadic::from_double(result.vertex_time[graph.finalize_vertex()]);
  const Dyadic obj_dev =
      (Dyadic::from_double(result.makespan) - t_fin).abs();
  if (obj_dev > tol) {
    rules.fail("objective", obj_dev.to_double(),
               "reported makespan " + fmt(result.makespan) +
                   " s differs from the Finalize time " +
                   fmt(t_fin.to_double()) + " s");
  }

  // Aggregate weak duality across windows: the whole-trace bound is the
  // sum of window bounds, so gaps add.
  double rel_gap = 0.0;
  bool duality_checked = false;
  if (duals_available && rules.ok("weak-duality")) {
    duality_checked = true;
    const Dyadic scale =
        dyadic_max(Dyadic::from_int(1), total_obj.abs());
    const Dyadic limit =
        Dyadic::from_double(im.options.duality_gap_tol) * scale;
    const double scale_d = scale.to_double();
    rel_gap = scale_d > 0.0 ? total_gap.to_double() / scale_d : 0.0;
    if (total_gap > limit) {
      rules.fail("weak-duality", rel_gap,
                 "certified duality gap " + fmt(total_gap.to_double()) +
                     " s exceeds " + fmt(im.options.duality_gap_tol) +
                     " relative tolerance");
    }
  } else if (im.options.require_duals && rules.ok("weak-duality")) {
    rules.fail("weak-duality", 0.0,
               "solver provided no duals but require_duals is set");
  }

  return rules.finish(duality_checked, rel_gap);
}

CertificateVerdict verify_certificate(const dag::TaskGraph& graph,
                                      const machine::PowerModel& model,
                                      const machine::ClusterSpec& cluster,
                                      const core::WindowedLpResult& result,
                                      double job_cap_watts,
                                      const CertificateOptions& options) {
  const CertificateChecker checker(graph, model, cluster, options);
  return checker.verify(result, job_cap_watts, job_cap_watts);
}

}  // namespace powerlim::check
