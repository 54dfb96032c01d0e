// Tests for the appendix-faithful flow ILP slack treatment
// (FlowIlpOptions::separate_slack): slack carries a fixed observed power
// instead of being folded into the task.
#include <gtest/gtest.h>

#include <algorithm>

#include "apps/exchange.h"
#include "core/flow_ilp.h"
#include "core/lp_formulation.h"
#include "machine/power_model.h"

namespace powerlim::core {
namespace {

const machine::PowerModel kModel{machine::SocketSpec{}};
const machine::ClusterSpec kCluster{};

dag::TaskGraph single_task_graph(double seconds = 3.0) {
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

/// Two ranks, imbalanced tasks into a collective: the light rank has real
/// slack, so its slack power matters.
dag::TaskGraph imbalanced_pair() {
  dag::TaskGraph g(2);
  const int init = g.add_vertex(dag::VertexKind::kInit, -1);
  const int fin = g.add_vertex(dag::VertexKind::kFinalize, -1);
  auto mk = [](double s) {
    machine::TaskWork w;
    w.cpu_seconds = s * 0.9;
    w.mem_seconds = s * 0.1;
    w.parallel_fraction = 0.97;
    return w;
  };
  g.add_task(init, fin, 0, mk(6.0), 0);
  g.add_task(init, fin, 1, mk(2.0), 0);
  return g;
}

FlowIlpOptions slack_opts(double cap, double slack_watts) {
  FlowIlpOptions o;
  o.power_cap = cap;
  o.separate_slack = true;
  o.slack_power_watts = slack_watts;
  return o;
}

TEST(FlowSlack, SingleTaskUnaffectedBySlackMode) {
  // One task, no slack: both modes must agree exactly.
  const dag::TaskGraph g = single_task_graph();
  for (double cap : {40.0, 80.0, 200.0}) {
    const auto plain =
        solve_flow_ilp(g, kModel, kCluster, {.power_cap = cap});
    const auto slack = solve_flow_ilp(g, kModel, kCluster,
                                      slack_opts(cap, kModel.idle_power()));
    ASSERT_TRUE(plain.optimal());
    ASSERT_TRUE(slack.optimal());
    EXPECT_NEAR(plain.makespan, slack.makespan, 1e-5) << cap;
  }
}

TEST(FlowSlack, ZeroSlackPowerMatchesPlainMode) {
  // With slack power 0 the slack entities route zero watts, so the model
  // is equivalent to the default mode.
  const dag::TaskGraph g = imbalanced_pair();
  for (double cap : {100.0, 140.0}) {
    const auto plain =
        solve_flow_ilp(g, kModel, kCluster, {.power_cap = cap});
    const auto slack =
        solve_flow_ilp(g, kModel, kCluster, slack_opts(cap, 0.0));
    ASSERT_TRUE(plain.optimal());
    ASSERT_TRUE(slack.optimal());
    EXPECT_NEAR(plain.makespan, slack.makespan, 1e-5) << cap;
  }
}

TEST(FlowSlack, SlackPowerShrinksTheBudget) {
  // Charging slack real watts can only hurt: the light rank's wait burns
  // budget the plain mode hands to the heavy rank.
  const dag::TaskGraph g = imbalanced_pair();
  const double cap = 95.0;
  const auto plain = solve_flow_ilp(g, kModel, kCluster, {.power_cap = cap});
  const auto slack = solve_flow_ilp(g, kModel, kCluster,
                                    slack_opts(cap, 20.0));
  ASSERT_TRUE(plain.optimal());
  ASSERT_TRUE(slack.optimal());
  EXPECT_GE(slack.makespan, plain.makespan - 1e-6);
}

TEST(FlowSlack, MonotoneInSlackPower) {
  const dag::TaskGraph g = imbalanced_pair();
  const double cap = 100.0;
  double prev = -1.0;
  for (double sw : {0.0, 10.0, 20.0, 30.0}) {
    const auto res = solve_flow_ilp(g, kModel, kCluster, slack_opts(cap, sw));
    ASSERT_TRUE(res.optimal()) << "slack power " << sw;
    if (prev >= 0.0) {
      EXPECT_GE(res.makespan, prev - 1e-6) << sw;
    }
    prev = res.makespan;
  }
}

TEST(FlowSlack, ExchangeStillTracksFixedOrderLp) {
  // With idle-level slack power the appendix formulation stays close to
  // (and never above) the fixed-order LP, whose slack assumption is the
  // *more* conservative task-power one.
  const dag::TaskGraph g = apps::two_rank_exchange();
  const LpFormulation form(g, kModel, kCluster);
  for (double cap : {90.0, 120.0, 160.0}) {
    const auto lp = form.solve({.power_cap = cap});
    const auto flow = solve_flow_ilp(g, kModel, kCluster,
                                     slack_opts(cap, kModel.idle_power()));
    ASSERT_TRUE(lp.optimal());
    ASSERT_TRUE(flow.optimal());
    EXPECT_LE(flow.makespan, lp.makespan + 1e-5) << cap;
  }
}

TEST(FlowSlack, InfeasibleWhenSlackPowerExceedsBudget) {
  // Two ranks' slack at 45 W each cannot fit under a 80 W job cap while
  // any task wants to run.
  const dag::TaskGraph g = imbalanced_pair();
  const auto res = solve_flow_ilp(g, kModel, kCluster, slack_opts(80.0, 45.0));
  EXPECT_EQ(res.status, lp::SolveStatus::kInfeasible);
}

TEST(FlowSlack, MakespanMonotoneInCap) {
  const dag::TaskGraph g = imbalanced_pair();
  double prev = 1e300;
  for (double cap = 95.0; cap <= 200.0; cap += 25.0) {
    const auto res = solve_flow_ilp(g, kModel, kCluster,
                                    slack_opts(cap, kModel.idle_power()));
    if (!res.optimal()) continue;
    EXPECT_LE(res.makespan, prev + 1e-5);
    prev = res.makespan;
  }
}

}  // namespace
}  // namespace powerlim::core
