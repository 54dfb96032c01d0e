#include <gtest/gtest.h>

#include <cmath>

#include "apps/benchmarks.h"
#include "machine/power_model.h"
#include "runtime/adagio.h"
#include "runtime/conductor.h"
#include "runtime/static_policy.h"
#include "sim/engine.h"
#include "sim/measure.h"

namespace powerlim::runtime {
namespace {

const machine::PowerModel kModel{machine::SocketSpec{}};

sim::EngineOptions engine_opts() {
  sim::EngineOptions o;
  o.cluster = machine::ClusterSpec{};
  o.idle_power = kModel.idle_power();
  return o;
}

TEST(StaticPolicy, AlwaysEightThreads) {
  const dag::TaskGraph g = apps::make_comd({.ranks = 4, .iterations = 3});
  StaticPolicy policy(kModel, 40.0);
  const sim::SimResult res = sim::simulate(g, policy, engine_opts());
  for (const auto& t : res.tasks) {
    if (t.edge_id < 0) continue;
    EXPECT_DOUBLE_EQ(t.threads, 8.0);
    EXPECT_LE(t.power, 40.0 + 1e-6);
  }
}

TEST(StaticPolicy, PerSocketPowerNeverExceedsCap) {
  for (double cap : {30.0, 50.0, 80.0}) {
    const dag::TaskGraph g = apps::make_bt({.ranks = 4, .iterations = 3});
    StaticPolicy policy(kModel, cap);
    const sim::SimResult res = sim::simulate(g, policy, engine_opts());
    // Job peak <= ranks * cap (slack draws task power <= cap).
    EXPECT_LE(res.peak_power, 4 * cap + 1e-6) << cap;
  }
}

TEST(StaticPolicy, LowerCapRunsSlower) {
  const dag::TaskGraph g = apps::make_comd({.ranks = 4, .iterations = 3});
  StaticPolicy tight(kModel, 28.0);
  StaticPolicy loose(kModel, 70.0);
  const double t_tight = sim::simulate(g, tight, engine_opts()).makespan;
  const double t_loose = sim::simulate(g, loose, engine_opts()).makespan;
  EXPECT_GT(t_tight, t_loose * 1.2);
}

TEST(StaticPolicy, NoSwitchOverheadEver) {
  const dag::TaskGraph g = apps::make_lulesh({.ranks = 4, .iterations = 2});
  StaticPolicy policy(kModel, 45.0);
  const sim::SimResult res = sim::simulate(g, policy, engine_opts());
  for (const auto& t : res.tasks) {
    if (t.edge_id >= 0) {
      EXPECT_EQ(t.switch_overhead, 0.0);
    }
  }
}

TEST(Adagio, NeverSlowerThanStaticBeyondTolerance) {
  // Adagio only reclaims slack; it must not materially extend the
  // makespan relative to Static at the same per-socket cap.
  for (double cap : {35.0, 50.0, 70.0}) {
    const dag::TaskGraph g = apps::make_bt({.ranks = 6, .iterations = 8});
    StaticPolicy st(kModel, cap);
    AdagioPolicy ad(kModel, cap);
    const double t_static = sim::simulate(g, st, engine_opts()).makespan;
    const double t_adagio = sim::simulate(g, ad, engine_opts()).makespan;
    EXPECT_LE(t_adagio, t_static * 1.06) << "cap " << cap;
  }
}

TEST(Adagio, SavesEnergyOnImbalancedApp) {
  // Slowing non-critical ranks must cut energy while holding time.
  const dag::TaskGraph g = apps::make_bt({.ranks = 6, .iterations = 8});
  StaticPolicy st(kModel, 60.0);
  AdagioPolicy ad(kModel, 60.0);
  const sim::SimResult rs = sim::simulate(g, st, engine_opts());
  const sim::SimResult ra = sim::simulate(g, ad, engine_opts());
  EXPECT_LT(ra.energy_joules, rs.energy_joules * 0.97);
}

TEST(Adagio, RespectsSocketCapOnChosenConfigs) {
  const dag::TaskGraph g = apps::make_comd({.ranks = 4, .iterations = 6});
  AdagioPolicy policy(kModel, 45.0);
  const sim::SimResult res = sim::simulate(g, policy, engine_opts());
  for (const auto& t : res.tasks) {
    if (t.edge_id < 0) continue;
    EXPECT_LE(t.power, 45.0 + 1e-6);
  }
}

TEST(Conductor, JobPowerNeverExceedsCap) {
  for (double socket : {30.0, 50.0, 70.0}) {
    const dag::TaskGraph g = apps::make_bt({.ranks = 6, .iterations = 10});
    ConductorPolicy policy(kModel, 6, socket * 6);
    const sim::SimResult res = sim::simulate(g, policy, engine_opts());
    EXPECT_LE(res.peak_power, socket * 6 + 1e-4) << socket;
  }
}

TEST(Conductor, BudgetsConserveJobCap) {
  const int ranks = 6;
  const double job_cap = 40.0 * ranks;
  const dag::TaskGraph g = apps::make_bt({.ranks = ranks, .iterations = 12});
  ConductorPolicy policy(kModel, ranks, job_cap);
  sim::simulate(g, policy, engine_opts());
  double total = 0.0;
  for (double b : policy.rank_budgets()) {
    total += b;
    EXPECT_GE(b, 0.0);
  }
  EXPECT_NEAR(total, job_cap, 1e-6);
}

TEST(Conductor, BeatsStaticOnImbalancedApp) {
  // BT-MZ's stable imbalance is Conductor's best case (Figure 13).
  const int ranks = 8;
  const dag::TaskGraph g = apps::make_bt({.ranks = ranks, .iterations = 20});
  for (double socket : {40.0, 50.0}) {
    StaticPolicy st(kModel, socket);
    ConductorPolicy cond(kModel, ranks, socket * ranks);
    const sim::SimResult rs = sim::simulate(g, st, engine_opts());
    const sim::SimResult rc = sim::simulate(g, cond, engine_opts());
    const double t_st = sim::steady_window_seconds(g, rs, 3);
    const double t_c = sim::steady_window_seconds(g, rc, 3);
    EXPECT_LT(t_c, t_st) << "socket " << socket;
  }
}

TEST(Conductor, NonUniformBudgetsEmergeUnderImbalance) {
  const int ranks = 8;
  const dag::TaskGraph g = apps::make_bt({.ranks = ranks, .iterations = 20});
  ConductorPolicy policy(kModel, ranks, 40.0 * ranks);
  sim::simulate(g, policy, engine_opts());
  const auto& budgets = policy.rank_budgets();
  const double spread = *std::max_element(budgets.begin(), budgets.end()) -
                        *std::min_element(budgets.begin(), budgets.end());
  EXPECT_GT(spread, 5.0);
  // The heaviest rank (last index for BT's geometric weights) should hold
  // an above-average budget.
  EXPECT_GT(budgets.back(), 40.0);
}

TEST(Conductor, ExplorationPhaseMatchesStatic) {
  // During the first iterations Conductor behaves like Static; the
  // iteration-0 task durations must match.
  const int ranks = 4;
  const double socket = 45.0;
  const dag::TaskGraph g = apps::make_comd({.ranks = ranks, .iterations = 4});
  StaticPolicy st(kModel, socket);
  ConductorPolicy cond(kModel, ranks, socket * ranks);
  const sim::SimResult rs = sim::simulate(g, st, engine_opts());
  const sim::SimResult rc = sim::simulate(g, cond, engine_opts());
  for (const dag::Edge& e : g.edges()) {
    if (!e.is_task() || e.iteration != 0) continue;
    EXPECT_NEAR(rs.tasks[e.id].duration(), rc.tasks[e.id].duration(), 1e-9);
  }
}

TEST(Conductor, ChargesReallocationOverhead) {
  // Freeze the adaptive knobs so the runs differ only by the 566 us
  // reallocation charge at each post-exploration window boundary.
  const int ranks = 4;
  const dag::TaskGraph g = apps::make_comd({.ranks = ranks, .iterations = 16});
  ConductorOptions opt;
  opt.realloc_period = 1;
  opt.donation_rate = 0.0;
  opt.slack_safety = 0.0;
  ConductorPolicy with(kModel, ranks, 45.0 * ranks, opt);
  const double t_with = sim::simulate(g, with, engine_opts()).makespan;
  ConductorOptions no_cost = opt;
  no_cost.realloc_overhead_s = 0.0;
  ConductorPolicy without(kModel, ranks, 45.0 * ranks, no_cost);
  const double t_without = sim::simulate(g, without, engine_opts()).makespan;
  // Windows 4..15 reallocate (exploration covers the first three, and the
  // first post-exploration boundary starts the counting period).
  EXPECT_GT(t_with, t_without);
  EXPECT_NEAR(t_with - t_without, 12 * 566e-6, 3 * 566e-6);
}

}  // namespace
}  // namespace powerlim::runtime
