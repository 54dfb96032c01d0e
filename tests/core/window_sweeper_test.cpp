#include <gtest/gtest.h>

#include <chrono>

#include "apps/benchmarks.h"
#include "core/lp_formulation.h"
#include "core/windowed.h"
#include "machine/power_model.h"

namespace powerlim::core {
namespace {

const machine::PowerModel kModel{machine::SocketSpec{}};
const machine::ClusterSpec kCluster{};

TEST(WindowSweeper, MatchesOneShotSolve) {
  // solve_windowed_lp is itself a one-shot sweeper, so the reference is
  // the monolithic trace LP: the barrier decomposition is exact, so the
  // stitched window optima make the whole trace's optimum.
  const dag::TaskGraph g = apps::make_bt({.ranks = 4, .iterations = 4});
  const WindowSweeper sweeper(g, kModel, kCluster);
  const LpFormulation mono(g, kModel, kCluster);
  for (double socket : {30.0, 45.0, 70.0}) {
    const double cap = 4 * socket;
    const auto a = sweeper.solve({.power_cap = cap});
    const auto b = mono.solve({.power_cap = cap});
    ASSERT_EQ(a.status, b.status) << socket;
    if (!a.optimal()) continue;
    EXPECT_NEAR(a.makespan, b.makespan, 1e-9 * b.makespan) << socket;
  }
}

TEST(WindowSweeper, MetadataMatchesGraph) {
  const dag::TaskGraph g = apps::make_comd({.ranks = 4, .iterations = 5});
  const WindowSweeper sweeper(g, kModel, kCluster);
  EXPECT_EQ(sweeper.num_windows(), 5u);
  EXPECT_GT(sweeper.min_feasible_power(), 0.0);
  EXPECT_GT(sweeper.unconstrained_makespan(), 0.0);
  // Solving at a huge cap reaches the unconstrained optimum.
  const auto res = sweeper.solve({.power_cap = 1e6});
  ASSERT_TRUE(res.optimal());
  EXPECT_NEAR(res.makespan, sweeper.unconstrained_makespan(),
              1e-9 * res.makespan);
}

TEST(WindowSweeper, InfeasibleCapReported) {
  const dag::TaskGraph g = apps::make_comd({.ranks = 3, .iterations = 3});
  const WindowSweeper sweeper(g, kModel, kCluster);
  const auto res =
      sweeper.solve({.power_cap = sweeper.min_feasible_power() * 0.8});
  EXPECT_EQ(res.status, lp::SolveStatus::kInfeasible);
}

TEST(WindowSweeper, SweepFasterThanRepeatedOneShots) {
  // The point of the class: a 10-cap sweep amortizes the build.
  const dag::TaskGraph g = apps::make_lulesh({.ranks = 6, .iterations = 6});
  std::vector<double> caps;
  for (double s = 32.0; s < 80.0; s += 5.0) caps.push_back(6 * s);

  const auto t0 = std::chrono::steady_clock::now();
  const WindowSweeper sweeper(g, kModel, kCluster);
  for (double cap : caps) (void)sweeper.solve({.power_cap = cap});
  const auto t1 = std::chrono::steady_clock::now();
  for (double cap : caps) {
    (void)solve_windowed_lp(g, kModel, kCluster, {.power_cap = cap});
  }
  const auto t2 = std::chrono::steady_clock::now();
  const double sweep_s = std::chrono::duration<double>(t1 - t0).count();
  const double oneshot_s = std::chrono::duration<double>(t2 - t1).count();
  // Not a tight perf bound (CI noise); the sweep must at least not lose.
  EXPECT_LT(sweep_s, oneshot_s * 1.2);
}

TEST(WindowSweeper, MoveSemantics) {
  const dag::TaskGraph g = apps::make_comd({.ranks = 2, .iterations = 2});
  WindowSweeper a(g, kModel, kCluster);
  const double min_power = a.min_feasible_power();
  WindowSweeper b = std::move(a);
  EXPECT_DOUBLE_EQ(b.min_feasible_power(), min_power);
  const auto res = b.solve({.power_cap = min_power * 1.5});
  EXPECT_TRUE(res.optimal());
}

}  // namespace
}  // namespace powerlim::core
