// The sparse LU simplex on the paper's trace corpus, gated by
// certificates rather than floating-point expectations: each result must
// pass the exact certificate checker (primal feasibility in
// dyadic-rational arithmetic + weak duality), so an accepted optimum is
// verified independently of the solver's rounding.
//
// Also covers: the degenerate/cycling fixture (Beale) driving the
// Bland's-rule rung, the statuses of infeasible/unbounded models, and
// the 100k-task scale target the sparse LU exists for.
#include <gtest/gtest.h>

#include <vector>

#include "apps/benchmarks.h"
#include "check/certificate.h"
#include "core/windowed.h"
#include "lp/model.h"
#include "lp/simplex.h"
#include "machine/power_model.h"
#include "util/deadline.h"

namespace powerlim {
namespace {

const machine::PowerModel& model() {
  static const machine::PowerModel m{machine::SocketSpec{}};
  return m;
}

const machine::ClusterSpec& cluster() {
  static const machine::ClusterSpec c{};
  return c;
}

core::LpScheduleOptions cap_options(double job_cap) {
  core::LpScheduleOptions o;
  o.power_cap = job_cap;
  return o;
}

TEST(BackendEquivalence, TraceCorpusCertificateGated) {
  struct App {
    const char* name;
    dag::TaskGraph graph;
  };
  const std::vector<App> corpus = {
      {"comd", apps::make_comd({.ranks = 4, .iterations = 3})},
      {"lulesh", apps::make_lulesh({.ranks = 4, .iterations = 3})},
      {"sp", apps::make_sp({.ranks = 4, .iterations = 3})},
      {"bt", apps::make_bt({.ranks = 4, .iterations = 3})},
  };
  for (const App& app : corpus) {
    for (double socket_cap : {35.0, 45.0, 60.0}) {
      const double job_cap = socket_cap * app.graph.num_ranks();
      const core::WindowedLpResult sparse = core::solve_windowed_lp(
          app.graph, model(), cluster(), cap_options(job_cap));
      ASSERT_TRUE(sparse.optimal())
          << app.name << " sparse @" << socket_cap << "W";
      // The claim is certified independently against the re-derived
      // model.
      const check::CertificateVerdict vs = check::verify_certificate(
          app.graph, model(), cluster(), sparse, job_cap);
      EXPECT_TRUE(vs.checked && vs.ok)
          << app.name << " sparse certificate @" << socket_cap << "W: "
          << vs.detail;
      EXPECT_TRUE(vs.duality_checked);
      // The run actually exercised the sparse machinery.
      EXPECT_GT(sparse.eta_nonzeros + sparse.refactor_count, 0)
          << app.name << " @" << socket_cap << "W";
      EXPECT_GE(sparse.lu_fill_ratio, 1.0);
    }
  }
}

/// Beale's classic cycling LP: Dantzig pricing cycles forever on it
/// without anti-cycling. Optimum is -0.05 at x = (0.04, 0, 1, 0).
lp::Model beale_model() {
  lp::Model m(lp::Sense::kMinimize);
  const lp::Variable x1 = m.add_variable(0, lp::kInfinity, -0.75, "x1");
  const lp::Variable x2 = m.add_variable(0, lp::kInfinity, 150.0, "x2");
  const lp::Variable x3 = m.add_variable(0, 1.0, -0.02, "x3");
  const lp::Variable x4 = m.add_variable(0, lp::kInfinity, 6.0, "x4");
  m.add_le({{x1, 0.25}, {x2, -60.0}, {x3, -0.04}, {x4, 9.0}}, 0.0);
  m.add_le({{x1, 0.5}, {x2, -90.0}, {x3, -0.02}, {x4, 3.0}}, 0.0);
  return m;
}

TEST(BackendEquivalence, BealeCyclingFixtureSolvesOnBothBackends) {
  const lp::Solution s = lp::solve_lp(beale_model());
  ASSERT_TRUE(s.optimal());
  EXPECT_NEAR(s.objective, -0.05, 1e-9);
}

TEST(BackendEquivalence, BlandRungRunsOnTheSparsePath) {
  // bland_trigger <= 0 engages Bland's rule from the first pivot - the
  // retry ladder's anti-cycling rung.
  const lp::Model m = beale_model();
  lp::SimplexOptions opt;
  opt.bland_trigger = 0;
  const lp::Solution s = lp::solve_lp(m, opt);
  ASSERT_TRUE(s.optimal());
  EXPECT_NEAR(s.objective, -0.05, 1e-9);
  EXPECT_TRUE(s.stats.bland_engaged);
}

TEST(BackendEquivalence, StatusParityOnInfeasibleAndUnbounded) {
  lp::Model infeasible;
  {
    const lp::Variable x = infeasible.add_variable(0, 1.0, 1.0, "x");
    infeasible.add_ge({{x, 1.0}}, 2.0);
  }
  lp::Model unbounded(lp::Sense::kMaximize);
  {
    const lp::Variable x =
        unbounded.add_variable(0, lp::kInfinity, 1.0, "x");
    const lp::Variable y =
        unbounded.add_variable(0, lp::kInfinity, 0.0, "y");
    unbounded.add_le({{x, 1.0}, {y, -1.0}}, 5.0);
  }
  EXPECT_EQ(lp::solve_lp(infeasible).status, lp::SolveStatus::kInfeasible);
  EXPECT_EQ(lp::solve_lp(unbounded).status, lp::SolveStatus::kUnbounded);
}

TEST(BackendEquivalence, HundredThousandTaskTraceSolvesSparse) {
  // The scale target the sparse LU exists for: a synthetic trace with
  // >= 100k task edges must solve to optimality within a
  // generous-but-finite wall budget.
  const dag::TaskGraph g =
      apps::make_comd({.ranks = 64, .iterations = 1600});
  long tasks = 0;
  for (const dag::Edge& e : g.edges()) {
    if (e.is_task()) ++tasks;
  }
  ASSERT_GE(tasks, 100'000);

  core::LpScheduleOptions o = cap_options(64 * 45.0);
  o.simplex.deadline = util::Deadline::after(90.0);
  const core::WindowedLpResult res =
      core::solve_windowed_lp(g, model(), cluster(), o);
  ASSERT_TRUE(res.optimal()) << lp::to_string(res.status);
  EXPECT_GT(res.makespan, 0.0);
  EXPECT_GT(res.eta_nonzeros, 0);
}

}  // namespace
}  // namespace powerlim
