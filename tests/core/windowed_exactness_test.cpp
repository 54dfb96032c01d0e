// The barrier decomposition's exactness claim, fuzzed: for random valid
// traces, the windowed LP's optimum equals the monolithic trace LP's at
// every cap, and the discrete (ILP) variant is never faster than the
// continuous relaxation.
#include <gtest/gtest.h>

#include "apps/random_app.h"
#include "core/lp_formulation.h"
#include "core/windowed.h"
#include "machine/power_model.h"

namespace powerlim::core {
namespace {

const machine::PowerModel kModel{machine::SocketSpec{}};
const machine::ClusterSpec kCluster{};

class WindowedExactnessTest : public ::testing::TestWithParam<int> {};

TEST_P(WindowedExactnessTest, MatchesMonolithicOnRandomApps) {
  apps::RandomAppParams params;
  params.seed = 12000 + GetParam();
  params.ranks = 2 + GetParam() % 4;
  params.iterations = 2 + GetParam() % 3;
  params.p2p_probability = (GetParam() % 3) * 0.35;
  const dag::TaskGraph g = apps::make_random_app(params);

  const LpFormulation mono(g, kModel, kCluster);
  for (double socket : {32.0, 45.0, 70.0}) {
    const double cap = socket * params.ranks;
    const auto a = mono.solve({.power_cap = cap});
    const auto b = solve_windowed_lp(g, kModel, kCluster, {.power_cap = cap});
    ASSERT_EQ(a.status, b.status)
        << "seed " << params.seed << " cap " << cap;
    if (!a.optimal()) continue;
    EXPECT_NEAR(a.makespan, b.makespan, 2e-4 * a.makespan)
        << "seed " << params.seed << " cap " << cap;
  }
}

TEST_P(WindowedExactnessTest, DiscreteNeverBeatsContinuous) {
  apps::RandomAppParams params;
  params.seed = 13000 + GetParam();
  params.ranks = 2;
  params.iterations = 1;  // keep the per-window ILP tiny
  params.p2p_probability = 0.0;
  const dag::TaskGraph g = apps::make_random_app(params);
  const LpFormulation form(g, kModel, kCluster);
  const double cap = form.min_feasible_power() * 1.4;
  const auto cont = form.solve({.power_cap = cap});
  LpScheduleOptions disc;
  disc.power_cap = cap;
  disc.discrete = true;
  const auto integral = form.solve(disc);
  ASSERT_TRUE(cont.optimal());
  if (!integral.optimal()) GTEST_SKIP() << "no integral point at this cap";
  EXPECT_GE(integral.makespan, cont.makespan - 1e-6);
  for (const auto& shares : integral.schedule.shares) {
    if (!shares.empty()) {
      EXPECT_EQ(shares.size(), 1u);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WindowedExactnessTest,
                         ::testing::Range(0, 12));

}  // namespace
}  // namespace powerlim::core
