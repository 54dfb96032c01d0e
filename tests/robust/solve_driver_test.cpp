// SolveDriver behavior on healthy inputs: clean solves, pre-checks,
// report structure, and the ladder walk after a replay cap violation.
// Ladder-under-fault behavior lives in fault_injection_test.cpp.
#include "robust/solve_driver.h"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "apps/benchmarks.h"
#include "core/windowed.h"
#include "machine/power_model.h"
#include "robust/fault_injection.h"

namespace powerlim::robust {
namespace {

const machine::PowerModel kModel{machine::SocketSpec{}};
const machine::ClusterSpec kCluster{};

dag::TaskGraph small_graph() {
  return apps::make_comd({.ranks = 2, .iterations = 3, .seed = 17});
}

std::vector<std::string> rungs(const RunReport& report) {
  std::vector<std::string> out;
  for (const SolveAttempt& att : report.attempts) out.push_back(att.rung);
  return out;
}

TEST(SolveDriver, CleanSolveIsOkOnFirstRung) {
  const dag::TaskGraph g = small_graph();
  const SolveDriver driver(g, kModel, kCluster);
  const SolveOutcome res = driver.solve(2 * 60.0);
  ASSERT_TRUE(res.ok()) << res.report.detail;
  ASSERT_EQ(res.report.attempts.size(), 1u);
  EXPECT_EQ(res.report.attempts[0].rung, "dantzig");
  EXPECT_EQ(res.report.attempts[0].outcome, StatusCode::kOk);
  EXPECT_FALSE(res.report.attempts[0].injected);
  EXPECT_GT(res.report.attempts[0].iterations, 0);
  EXPECT_FALSE(res.report.degraded);
  EXPECT_GT(res.report.bound_seconds, 0.0);
  EXPECT_TRUE(res.report.usable());

  // The driver's bound is the plain windowed solve's bound.
  const auto plain =
      core::solve_windowed_lp(g, kModel, kCluster, {.power_cap = 2 * 60.0});
  ASSERT_TRUE(plain.optimal());
  EXPECT_NEAR(res.report.bound_seconds, plain.makespan,
              1e-9 * plain.makespan);
}

TEST(SolveDriver, ReplayValidationRunsAndPasses) {
  const dag::TaskGraph g = small_graph();
  const SolveDriver driver(g, kModel, kCluster);
  const SolveOutcome res = driver.solve(2 * 55.0);
  ASSERT_TRUE(res.ok()) << res.report.detail;
  EXPECT_TRUE(res.report.replay.checked);
  EXPECT_TRUE(res.report.replay.check.ok);
  EXPECT_GT(res.report.replay.check.max_windowed_power, 0.0);
  ASSERT_TRUE(res.simulated.has_value());
  EXPECT_GT(res.simulated->makespan, 0.0);
}

TEST(SolveDriver, InfeasibleCapIsTerminalWithoutLadder) {
  const dag::TaskGraph g = small_graph();
  const SolveDriver driver(g, kModel, kCluster);
  const SolveOutcome res = driver.solve(2 * 5.0);  // far below idle
  EXPECT_EQ(res.report.verdict, StatusCode::kInfeasibleCap);
  EXPECT_TRUE(res.report.attempts.empty());  // pre-check, no solve burned
  EXPECT_FALSE(res.report.degraded);
  EXPECT_FALSE(res.report.usable());
  EXPECT_NE(res.report.detail.find("needs at least"), std::string::npos);
  EXPECT_GT(res.report.min_feasible_power_watts, 0.0);
}

TEST(SolveDriver, NonFiniteAndNonPositiveCapsAreBadInput) {
  const dag::TaskGraph g = small_graph();
  const SolveDriver driver(g, kModel, kCluster);
  for (const double cap : {std::nan(""), -10.0, 0.0}) {
    const SolveOutcome res = driver.solve(cap);
    EXPECT_EQ(res.report.verdict, StatusCode::kBadInput) << cap;
    EXPECT_FALSE(res.report.usable()) << cap;
  }
}

TEST(SolveDriver, SweepReturnsOneOutcomePerCapInOrder) {
  const dag::TaskGraph g = small_graph();
  const SolveDriver driver(g, kModel, kCluster);
  const std::vector<double> caps = {2 * 10.0, 2 * 45.0, 2 * 60.0};
  const auto outcomes = driver.sweep(caps);
  ASSERT_EQ(outcomes.size(), caps.size());
  for (std::size_t i = 0; i < caps.size(); ++i) {
    EXPECT_DOUBLE_EQ(outcomes[i].report.job_cap_watts, caps[i]);
  }
  EXPECT_EQ(outcomes[0].report.verdict, StatusCode::kInfeasibleCap);
  EXPECT_TRUE(outcomes[1].ok());
  EXPECT_TRUE(outcomes[2].ok());
  // Higher cap, no worse bound.
  EXPECT_LE(outcomes[2].report.bound_seconds,
            outcomes[1].report.bound_seconds + 1e-9);
}

// Nothing carries over from one solve to the next: a cap solved again
// on the same driver, after another cap, reports exactly what it did
// the first time, pivots included.
TEST(SolveDriver, RepeatedSolvesOfOneCapReportTheSame) {
  const dag::TaskGraph g = small_graph();
  const SolveDriver driver(g, kModel, kCluster);
  SolveOutcome first = driver.solve(2 * 50.0);
  ASSERT_TRUE(driver.solve(2 * 60.0).ok());
  SolveOutcome again = driver.solve(2 * 50.0);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(again.ok());
  first.report.wall_ms = 0.0;
  again.report.wall_ms = 0.0;
  EXPECT_EQ(again.report.to_json(), first.report.to_json());
}

// A replay cap violation at dantzig is retried once at bland, which can
// reach another optimal vertex; a violation there degrades to Static.
TEST(SolveDriver, ReplayViolationRetriesOnlyBlandThenDegrades) {
  const dag::TaskGraph g =
      apps::make_lulesh({.ranks = 8, .iterations = 12, .seed = 17});
  const SolveDriver driver(g, kModel, kCluster);
  const SolveOutcome res = driver.solve(8 * 50.0);
  EXPECT_EQ(res.report.verdict, StatusCode::kReplayCapViolation)
      << res.report.detail;
  EXPECT_TRUE(res.report.degraded);
  EXPECT_EQ(res.report.fallback, "static-policy");
  EXPECT_NEAR(res.report.bound_seconds, 82.0302538599, 1e-9);
  ASSERT_EQ(rungs(res.report), (std::vector<std::string>{"dantzig", "bland"}));
  for (const SolveAttempt& att : res.report.attempts) {
    EXPECT_EQ(att.outcome, StatusCode::kReplayCapViolation) << att.rung;
  }
  const SolveAttempt& bland = res.report.attempts[1];
  EXPECT_TRUE(bland.bland_engaged);
  EXPECT_GT(bland.eta_nonzeros, 0);  // the LU's eta file was used
}

// The Bland retry can reach another optimal vertex that passes replay.
TEST(SolveDriver, BlandVertexRescuesAReplayViolation) {
  const dag::TaskGraph g =
      apps::make_lulesh({.ranks = 8, .iterations = 12, .seed = 8});
  const SolveDriver driver(g, kModel, kCluster);
  const SolveOutcome res = driver.solve(8 * 55.0);
  ASSERT_TRUE(res.ok()) << res.report.detail;
  EXPECT_FALSE(res.report.degraded);
  ASSERT_EQ(rungs(res.report), (std::vector<std::string>{"dantzig", "bland"}));
  EXPECT_EQ(res.report.attempts[0].outcome, StatusCode::kReplayCapViolation);
  EXPECT_EQ(res.report.attempts[1].outcome, StatusCode::kOk);
  EXPECT_TRUE(res.report.replay.checked);
  EXPECT_TRUE(res.report.replay.check.ok);
  EXPECT_TRUE(res.report.certificate.checked);
  EXPECT_TRUE(res.report.certificate.ok);
}

// After a numerical failure at dantzig the ladder reaches bland, and a
// replay violation there ends the ladder.
TEST(SolveDriver, ReplayViolationAtDenseBlandEndsTheLadder) {
  const dag::TaskGraph g =
      apps::make_lulesh({.ranks = 8, .iterations = 12, .seed = 17});
  FaultPlan plan;
  plan.fail_attempts = 1;  // "dantzig" fails injected
  plan.forced_status = lp::SolveStatus::kNumericalError;
  const ScopedFaultPlan scope(plan);
  const SolveDriver driver(g, kModel, kCluster);
  const SolveOutcome res = driver.solve(8 * 50.0);
  EXPECT_EQ(res.report.verdict, StatusCode::kReplayCapViolation)
      << res.report.detail;
  EXPECT_TRUE(res.report.degraded);
  ASSERT_EQ(rungs(res.report), (std::vector<std::string>{"dantzig", "bland"}));
  const SolveAttempt& bland = res.report.attempts[1];
  EXPECT_FALSE(bland.injected);
  EXPECT_EQ(bland.outcome, StatusCode::kReplayCapViolation);
}

// At 30 W the bland solve of one window reaches a singular basis. That is
// a numerical failure lp::solve_lp retries, not an internal error: bland's
// vertex is reached, violates replay, and the ladder ends.
TEST(SolveDriver, SingularBasisAtBlandIsRetriedInsideTheSolve) {
  const dag::TaskGraph g =
      apps::make_lulesh({.ranks = 8, .iterations = 12, .seed = 17});
  const SolveDriver driver(g, kModel, kCluster);
  const SolveOutcome res = driver.solve(8 * 30.0);
  EXPECT_EQ(res.report.verdict, StatusCode::kReplayCapViolation)
      << res.report.detail;
  EXPECT_TRUE(res.report.degraded);
  EXPECT_EQ(res.report.fallback, "static-policy");
  EXPECT_NEAR(res.report.bound_seconds, 119.81722482748313, 1e-9);
  ASSERT_EQ(rungs(res.report), (std::vector<std::string>{"dantzig", "bland"}));
  for (const SolveAttempt& att : res.report.attempts) {
    EXPECT_NE(att.outcome, StatusCode::kInternal)
        << att.rung << ": " << att.detail;
  }
}

// An attempt the solver ends without an optimum names the status and
// the window that failed, so the cap's detail says why the ladder gave up.
TEST(SolveDriver, SolverStatusAttemptsNameTheStatusAndWindow) {
  const dag::TaskGraph g = small_graph();
  SolveDriverOptions opt;
  opt.lp.simplex.max_iterations = 1;
  const SolveDriver driver(g, kModel, kCluster, opt);
  const SolveOutcome res = driver.solve(2 * 60.0);
  EXPECT_EQ(res.report.verdict, StatusCode::kIterationLimit)
      << res.report.detail;
  EXPECT_TRUE(res.report.degraded);
  ASSERT_EQ(rungs(res.report), (std::vector<std::string>{"dantzig", "bland"}));
  for (const SolveAttempt& att : res.report.attempts) {
    EXPECT_EQ(att.outcome, StatusCode::kIterationLimit) << att.rung;
    ASSERT_GE(att.failed_window, 0) << att.rung;
    EXPECT_EQ(att.detail, "iteration-limit in window " +
                              std::to_string(att.failed_window))
        << att.rung;
  }
  EXPECT_NE(res.report.detail.find("; last: iteration-limit in window "),
            std::string::npos)
      << res.report.detail;
}

TEST(SolveDriver, ReportSerializesToJson) {
  const dag::TaskGraph g = small_graph();
  const SolveDriver driver(g, kModel, kCluster);
  const SolveOutcome res = driver.solve(2 * 60.0);
  ASSERT_TRUE(res.ok());
  const std::string json = res.report.to_json();
  for (const char* needle :
       {"\"job_cap_watts\":", "\"verdict\":\"ok\"", "\"rung\":\"dantzig\"",
        "\"outcome\":\"ok\"", "\"iterations\":", "\"degenerate_pivots\":",
        "\"refactor_count\":", "\"bland_engaged\":",
        "\"primal_infeasibility\":", "\"replay\":{\"checked\":true",
        "\"degraded\":false"}) {
    EXPECT_NE(json.find(needle), std::string::npos) << needle << "\n" << json;
  }
}

TEST(SolveDriver, ReportsToJsonMakesAnArray) {
  const dag::TaskGraph g = small_graph();
  const SolveDriver driver(g, kModel, kCluster);
  std::vector<std::string> reports;
  for (const auto& o : driver.sweep({2 * 10.0, 2 * 60.0})) {
    reports.push_back(o.report.to_json());
  }
  const std::string json = reports_to_json(reports);
  EXPECT_EQ(json.front(), '[');
  EXPECT_NE(json.find("\"verdict\":\"infeasible-cap\""), std::string::npos);
  EXPECT_NE(json.find("\"verdict\":\"ok\""), std::string::npos);
}

}  // namespace
}  // namespace powerlim::robust
