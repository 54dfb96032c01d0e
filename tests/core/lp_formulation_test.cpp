#include "core/lp_formulation.h"

#include <gtest/gtest.h>

#include <cmath>

#include "apps/benchmarks.h"
#include "apps/exchange.h"
#include "core/pareto.h"
#include "machine/power_model.h"

namespace powerlim::core {
namespace {

const machine::SocketSpec kSpec{};
const machine::PowerModel kModel{kSpec};
const machine::ClusterSpec kCluster{};

/// One rank, one long task.
dag::TaskGraph single_task_graph(double seconds = 4.0) {
  dag::TaskGraph g(1);
  const int init = g.add_vertex(dag::VertexKind::kInit, -1);
  const int fin = g.add_vertex(dag::VertexKind::kFinalize, -1);
  machine::TaskWork w;
  w.cpu_seconds = seconds * 0.9;
  w.mem_seconds = seconds * 0.1;
  w.parallel_fraction = 0.97;
  g.add_task(init, fin, 0, w, 0);
  return g;
}

/// Two ranks, one heavy and one light task, joined by a collective.
dag::TaskGraph imbalanced_pair(double heavy = 8.0, double light = 4.0) {
  dag::TaskGraph g(2);
  const int init = g.add_vertex(dag::VertexKind::kInit, -1);
  const int coll = g.add_vertex(dag::VertexKind::kCollective, -1);
  const int fin = g.add_vertex(dag::VertexKind::kFinalize, -1);
  auto mk = [](double s) {
    machine::TaskWork w;
    w.cpu_seconds = s * 0.9;
    w.mem_seconds = s * 0.1;
    w.parallel_fraction = 0.97;
    return w;
  };
  g.add_task(init, coll, 0, mk(heavy), 0);
  g.add_task(init, coll, 1, mk(light), 0);
  g.add_task(coll, fin, 0, mk(light * 0.2), 1);
  g.add_task(coll, fin, 1, mk(light * 0.2), 1);
  return g;
}

TEST(LpFormulation, UnconstrainedMakespanEqualsFastestChain) {
  const dag::TaskGraph g = single_task_graph(4.0);
  const LpFormulation form(g, kModel, kCluster);
  const auto& frontier = form.frontiers()[0];
  EXPECT_NEAR(form.unconstrained_makespan(), frontier.back().duration, 1e-12);
}

TEST(LpFormulation, GenerousCapReachesUnconstrainedOptimum) {
  const dag::TaskGraph g = single_task_graph(4.0);
  const LpFormulation form(g, kModel, kCluster);
  const auto res = form.solve({.power_cap = 500.0});
  ASSERT_TRUE(res.optimal());
  EXPECT_NEAR(res.makespan, form.unconstrained_makespan(), 1e-6);
}

TEST(LpFormulation, TightCapSlowsExecution) {
  const dag::TaskGraph g = single_task_graph(4.0);
  const LpFormulation form(g, kModel, kCluster);
  const auto fast = form.solve({.power_cap = 500.0});
  const auto slow = form.solve({.power_cap = 35.0});
  ASSERT_TRUE(fast.optimal());
  ASSERT_TRUE(slow.optimal());
  EXPECT_GT(slow.makespan, fast.makespan * 1.05);
}

TEST(LpFormulation, InfeasibleBelowMinPower) {
  const dag::TaskGraph g = single_task_graph(4.0);
  const LpFormulation form(g, kModel, kCluster);
  const double min_power = form.min_feasible_power();
  const auto res = form.solve({.power_cap = min_power * 0.9});
  EXPECT_EQ(res.status, lp::SolveStatus::kInfeasible);
}

TEST(LpFormulation, FeasibleJustAboveMinPower) {
  const dag::TaskGraph g = single_task_graph(4.0);
  const LpFormulation form(g, kModel, kCluster);
  const auto res = form.solve({.power_cap = form.min_feasible_power() * 1.01});
  EXPECT_TRUE(res.optimal());
}

class CapSweepTest : public ::testing::TestWithParam<double> {};

TEST_P(CapSweepTest, EventPowerRespectsCap) {
  const dag::TaskGraph g = imbalanced_pair();
  const LpFormulation form(g, kModel, kCluster);
  const double cap = GetParam();
  const auto res = form.solve({.power_cap = cap});
  if (!res.optimal()) GTEST_SKIP() << "cap infeasible";
  for (double p : res.event_power) {
    EXPECT_LE(p, cap + 1e-5);
  }
}

TEST_P(CapSweepTest, VertexTimesConsistentWithDurations) {
  const dag::TaskGraph g = imbalanced_pair();
  const LpFormulation form(g, kModel, kCluster);
  const auto res = form.solve({.power_cap = GetParam()});
  if (!res.optimal()) GTEST_SKIP();
  for (const auto& e : g.edges()) {
    EXPECT_GE(res.vertex_time[e.dst] - res.vertex_time[e.src],
              res.schedule.duration[e.id] - 1e-6);
  }
  EXPECT_NEAR(res.vertex_time[g.finalize_vertex()], res.makespan, 1e-6);
  EXPECT_NEAR(res.vertex_time[g.init_vertex()], 0.0, 1e-9);
}

TEST_P(CapSweepTest, SharesFormValidMixtures) {
  // Each task's mixture is a valid convex combination over its frontier.
  // A basic solution has at most 3 positive shares per task (a task's c
  // variables appear in at most 3 rows: sum-to-one, its duration row and
  // one binding power row); the common case the paper describes - two
  // *neighboring* discrete configurations - must hold whenever exactly two
  // shares appear on a critical task.
  const dag::TaskGraph g = imbalanced_pair();
  const LpFormulation form(g, kModel, kCluster);
  const auto res = form.solve({.power_cap = GetParam()});
  if (!res.optimal()) GTEST_SKIP();
  for (const auto& e : g.edges()) {
    const auto& shares = res.schedule.shares[e.id];
    if (shares.empty()) continue;
    ASSERT_LE(shares.size(), 3u);
    double total = 0.0;
    for (const auto& s : shares) {
      ASSERT_GE(s.config_index, 0);
      ASSERT_LT(s.config_index,
                static_cast<int>(form.frontiers()[e.id].size()));
      EXPECT_GT(s.fraction, 0.0);
      total += s.fraction;
    }
    EXPECT_NEAR(total, 1.0, 1e-6);
  }
  // The heavy task (edge 0) is on the critical path; when it mixes two
  // configurations they must be frontier neighbors.
  const auto& critical = res.schedule.shares[0];
  if (critical.size() == 2) {
    EXPECT_EQ(std::abs(critical[0].config_index - critical[1].config_index),
              1);
  }
}

INSTANTIATE_TEST_SUITE_P(Caps, CapSweepTest,
                         ::testing::Values(60.0, 70.0, 80.0, 100.0, 120.0,
                                           160.0, 200.0));

TEST(LpFormulation, MakespanMonotoneInCap) {
  const dag::TaskGraph g = imbalanced_pair();
  const LpFormulation form(g, kModel, kCluster);
  double prev = 1e300;
  for (double cap = 55.0; cap <= 200.0; cap += 10.0) {
    const auto res = form.solve({.power_cap = cap});
    if (!res.optimal()) continue;
    EXPECT_LE(res.makespan, prev + 1e-6) << "cap " << cap;
    prev = res.makespan;
  }
}

TEST(LpFormulation, NeverBeatsUnconstrained) {
  const dag::TaskGraph g = imbalanced_pair();
  const LpFormulation form(g, kModel, kCluster);
  for (double cap : {60.0, 90.0, 150.0, 400.0}) {
    const auto res = form.solve({.power_cap = cap});
    if (!res.optimal()) continue;
    EXPECT_GE(res.makespan, form.unconstrained_makespan() - 1e-6);
  }
}

TEST(LpFormulation, ShiftsPowerToHeavyRank) {
  // The essence of the paper: under a binding job-level cap the LP gives
  // the critical (heavy) rank more power than the light rank.
  const dag::TaskGraph g = imbalanced_pair(8.0, 4.0);
  const LpFormulation form(g, kModel, kCluster);
  // Pick a cap between min feasible and unconstrained need.
  const double cap = form.min_feasible_power() * 1.5;
  const auto res = form.solve({.power_cap = cap});
  ASSERT_TRUE(res.optimal());
  // Edge 0 is the heavy task, edge 1 the light one.
  EXPECT_GT(res.schedule.power[0], res.schedule.power[1] + 1.0);
}

TEST(LpFormulation, EventOrderPreserved) {
  const dag::TaskGraph g = apps::make_comd({.ranks = 4, .iterations = 3});
  const LpFormulation form(g, kModel, kCluster);
  const auto res = form.solve({.power_cap = 4 * 45.0});
  ASSERT_TRUE(res.optimal());
  const auto& ev = form.events();
  for (std::size_t grp = 1; grp < ev.num_groups(); ++grp) {
    const double prev = res.vertex_time[ev.groups[grp - 1].front()];
    const double cur = res.vertex_time[ev.groups[grp].front()];
    EXPECT_GE(cur, prev - 1e-7);
  }
  // Group members pinned equal (eq. 13).
  for (const auto& grp : ev.groups) {
    for (std::size_t m = 1; m < grp.size(); ++m) {
      EXPECT_NEAR(res.vertex_time[grp[m]], res.vertex_time[grp[0]], 1e-6);
    }
  }
}

TEST(LpFormulation, ComdScheduleRespectsCapEverywhere) {
  const dag::TaskGraph g = apps::make_comd({.ranks = 4, .iterations = 4});
  const LpFormulation form(g, kModel, kCluster);
  const double cap = 4 * 40.0;
  const auto res = form.solve({.power_cap = cap});
  ASSERT_TRUE(res.optimal());
  for (double p : res.event_power) EXPECT_LE(p, cap + 1e-5);
  EXPECT_GE(res.makespan, form.unconstrained_makespan() - 1e-6);
}

TEST(LpFormulation, DiscreteModeSingleShareAndNoFasterThanContinuous) {
  const dag::TaskGraph g = imbalanced_pair(4.0, 2.0);
  const LpFormulation form(g, kModel, kCluster);
  const double cap = form.min_feasible_power() * 1.4;
  const auto cont = form.solve({.power_cap = cap});
  LpScheduleOptions opt{.power_cap = cap, .discrete = true};
  const auto disc = form.solve(opt);
  ASSERT_TRUE(cont.optimal());
  ASSERT_TRUE(disc.optimal());
  EXPECT_GE(disc.makespan, cont.makespan - 1e-6);
  for (const auto& shares : disc.schedule.shares) {
    if (!shares.empty()) {
      EXPECT_EQ(shares.size(), 1u);
    }
  }
  for (double p : disc.event_power) EXPECT_LE(p, cap + 1e-5);
}

TEST(LpFormulation, MessagesConstrainTiming) {
  const dag::TaskGraph g = apps::two_rank_exchange();
  const LpFormulation form(g, kModel, kCluster);
  const auto res = form.solve({.power_cap = 500.0});
  ASSERT_TRUE(res.optimal());
  for (const auto& e : g.edges()) {
    if (e.is_task()) continue;
    EXPECT_GE(res.vertex_time[e.dst] - res.vertex_time[e.src],
              kCluster.message_seconds(e.bytes) - 1e-9);
  }
}

TEST(LpFormulation, RoundingToDiscreteKeepsFrontierConfigs) {
  const dag::TaskGraph g = imbalanced_pair();
  const LpFormulation form(g, kModel, kCluster);
  const auto res = form.solve({.power_cap = form.min_feasible_power() * 1.3});
  ASSERT_TRUE(res.optimal());
  const TaskSchedule rounded =
      round_to_discrete(res.schedule, form.frontiers());
  for (std::size_t e = 0; e < rounded.shares.size(); ++e) {
    if (rounded.shares[e].empty()) continue;
    ASSERT_EQ(rounded.shares[e].size(), 1u);
    const int k = rounded.shares[e][0].config_index;
    ASSERT_GE(k, 0);
    ASSERT_LT(k, static_cast<int>(form.frontiers()[e].size()));
    EXPECT_DOUBLE_EQ(rounded.duration[e], form.frontiers()[e][k].duration);
  }
}

}  // namespace
}  // namespace powerlim::core
