// Fault-injection suite: proves every rung of the retry/degradation
// ladder is reachable and that cap sweeps finish with per-cap verdicts
// under injected failures (the tentpole acceptance scenario).
#include "robust/fault_injection.h"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "apps/benchmarks.h"
#include "dag/trace_io.h"
#include "machine/power_model.h"
#include "robust/pipeline.h"
#include "robust/solve_driver.h"
#include "scratch_dir.h"

namespace powerlim::robust {
namespace {

const machine::PowerModel kModel{machine::SocketSpec{}};
const machine::ClusterSpec kCluster{};

dag::TaskGraph small_graph() {
  return apps::make_comd({.ranks = 2, .iterations = 3, .seed = 17});
}

std::string serialized_trace() {
  std::ostringstream buf;
  dag::write_trace(buf, small_graph());
  return buf.str();
}

// --- ScopedFaultPlan mechanics ---

TEST(FaultPlan, ScopesInstallAndRestore) {
  EXPECT_EQ(ScopedFaultPlan::active(), nullptr);
  FaultPlan outer, inner;
  {
    const ScopedFaultPlan a(outer);
    EXPECT_EQ(ScopedFaultPlan::active(), &outer);
    {
      const ScopedFaultPlan b(inner);
      EXPECT_EQ(ScopedFaultPlan::active(), &inner);
    }
    EXPECT_EQ(ScopedFaultPlan::active(), &outer);
  }
  EXPECT_EQ(ScopedFaultPlan::active(), nullptr);
}

TEST(FaultPlan, CapScoping) {
  FaultPlan plan;
  plan.only_job_cap = 70.0;
  EXPECT_TRUE(plan.applies_to_cap(70.0));
  EXPECT_TRUE(plan.applies_to_cap(70.0 + 1e-9));
  EXPECT_FALSE(plan.applies_to_cap(120.0));
  plan.only_job_cap = -1.0;  // unscoped
  EXPECT_TRUE(plan.applies_to_cap(120.0));
}

// --- trace corruption (pipeline entry point) ---

TEST(FaultInjection, TruncatedTraceFailsSoftWithProvenance) {
  const std::string text = truncate_trace_text(serialized_trace(), 0.6);
  const ScratchDir scratch("fault_injection");
  ASSERT_TRUE(scratch.ok());
  const std::string path = scratch.path("truncated.trace");
  {
    std::ofstream f(path);
    f << text;
  }
  const auto r = load_trace_checked(path);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kBadInput);
  EXPECT_NE(r.status().message().find(path), std::string::npos)
      << r.status().message();
}

TEST(FaultInjection, GarbledTokenFailsSoftNamingToken) {
  const std::string text = garble_trace_token(serialized_trace(), 99);
  ASSERT_NE(text, serialized_trace());  // a token was actually replaced
  const ScratchDir scratch("fault_injection");
  ASSERT_TRUE(scratch.ok());
  const std::string path = scratch.path("garbled.trace");
  {
    std::ofstream f(path);
    f << text;
  }
  const auto r = load_trace_checked(path);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kBadInput);
  EXPECT_NE(r.status().message().find("x?y"), std::string::npos)
      << r.status().message();
}

TEST(FaultInjection, GarblingIsDeterministic) {
  EXPECT_EQ(garble_trace_token(serialized_trace(), 7),
            garble_trace_token(serialized_trace(), 7));
}

TEST(FaultInjection, HealthyTraceStillLoads) {
  const ScratchDir scratch("fault_injection");
  ASSERT_TRUE(scratch.ok());
  const std::string path = scratch.path("healthy.trace");
  {
    std::ofstream f(path);
    f << serialized_trace();
  }
  const auto r = load_trace_checked(path);
  ASSERT_TRUE(r.ok()) << r.status().to_string();
  EXPECT_EQ(r->num_ranks(), 2);
}

// --- empty frontier (formulation entry point) ---

TEST(FaultInjection, DroppedParetoPointsYieldEmptyFrontierVerdict) {
  const dag::TaskGraph g = small_graph();
  FaultPlan plan;
  plan.drop_all_pareto_points = true;
  const ScopedFaultPlan scope(plan);
  const SolveDriver driver(g, kModel, kCluster);
  const SolveOutcome res = driver.solve(2 * 60.0);
  EXPECT_EQ(res.report.verdict, StatusCode::kEmptyFrontier);
  EXPECT_FALSE(res.report.usable());
  EXPECT_NE(res.report.detail.find("frontier"), std::string::npos);
}

TEST(FaultInjection, DriverRecoversOnceFrontierFaultClears) {
  // The lazy sweeper build must retry after the fault scope ends - one
  // poisoned construction must not wedge the driver.
  const dag::TaskGraph g = small_graph();
  const SolveDriver driver(g, kModel, kCluster);
  FaultPlan plan;
  plan.drop_all_pareto_points = true;
  {
    const ScopedFaultPlan scope(plan);
    EXPECT_EQ(driver.solve(2 * 60.0).report.verdict,
              StatusCode::kEmptyFrontier);
  }
  EXPECT_TRUE(driver.solve(2 * 60.0).ok());
}

// --- forced solver statuses: walk the ladder rung by rung ---

TEST(FaultInjection, NumericalErrorRecoversAtLaterRung) {
  const dag::TaskGraph g = small_graph();
  FaultPlan plan;
  plan.fail_attempts = 1;  // "warm" fails injected
  plan.forced_status = lp::SolveStatus::kNumericalError;
  const ScopedFaultPlan scope(plan);
  const SolveDriver driver(g, kModel, kCluster);
  const SolveOutcome res = driver.solve(2 * 60.0);
  ASSERT_TRUE(res.ok()) << res.report.detail;
  ASSERT_EQ(res.report.attempts.size(), 2u);
  EXPECT_EQ(res.report.attempts[0].rung, "warm");
  EXPECT_TRUE(res.report.attempts[0].injected);
  EXPECT_EQ(res.report.attempts[0].outcome, StatusCode::kSolverNumerical);
  EXPECT_EQ(res.report.attempts[1].rung, "bland");
  EXPECT_FALSE(res.report.attempts[1].injected);
  EXPECT_EQ(res.report.attempts[1].outcome, StatusCode::kOk);
  EXPECT_FALSE(res.report.degraded);
}

TEST(FaultInjection, IterationLimitRecoversAtBlandRung) {
  const dag::TaskGraph g = small_graph();
  FaultPlan plan;
  plan.fail_attempts = 1;
  plan.forced_status = lp::SolveStatus::kIterationLimit;
  const ScopedFaultPlan scope(plan);
  const SolveDriver driver(g, kModel, kCluster);
  const SolveOutcome res = driver.solve(2 * 60.0);
  ASSERT_TRUE(res.ok()) << res.report.detail;
  ASSERT_EQ(res.report.attempts.size(), 2u);
  EXPECT_EQ(res.report.attempts[0].outcome, StatusCode::kIterationLimit);
  EXPECT_EQ(res.report.attempts[1].rung, "bland");
  EXPECT_EQ(res.report.attempts[1].outcome, StatusCode::kOk);
}

TEST(FaultInjection, EveryRungIsExercisedBeforeDegrading) {
  const dag::TaskGraph g = small_graph();
  // Clean LP optimum for comparison, solved before any fault is active.
  const SolveOutcome clean = SolveDriver(g, kModel, kCluster).solve(2 * 60.0);
  ASSERT_TRUE(clean.ok());

  FaultPlan plan;
  plan.fail_attempts = 99;  // exhaust the whole ladder
  plan.forced_status = lp::SolveStatus::kNumericalError;
  const ScopedFaultPlan scope(plan);
  const SolveDriver driver(g, kModel, kCluster);
  const SolveOutcome res = driver.solve(2 * 60.0);

  // Both rungs recorded, in order.
  ASSERT_EQ(res.report.attempts.size(), 2u);
  const char* expected[] = {"warm", "bland"};
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(res.report.attempts[i].rung, expected[i]) << i;
    EXPECT_TRUE(res.report.attempts[i].injected) << i;
  }

  // Verdict keeps the failure class; the bound degrades to Static.
  EXPECT_EQ(res.report.verdict, StatusCode::kSolverNumerical);
  EXPECT_TRUE(res.report.degraded);
  EXPECT_EQ(res.report.fallback, "static-policy");
  EXPECT_GT(res.report.bound_seconds, 0.0);
  EXPECT_TRUE(res.report.usable());
  ASSERT_TRUE(res.simulated.has_value());
  EXPECT_DOUBLE_EQ(res.simulated->makespan, res.report.bound_seconds);

  // The degraded (achievable) bound is no better than the LP optimum.
  EXPECT_GE(res.report.bound_seconds, clean.report.bound_seconds - 1e-9);
}

TEST(FaultInjection, ForcedInfeasibleIsTerminalNotRetried) {
  const dag::TaskGraph g = small_graph();
  FaultPlan plan;
  plan.fail_attempts = 99;
  plan.forced_status = lp::SolveStatus::kInfeasible;
  const ScopedFaultPlan scope(plan);
  const SolveDriver driver(g, kModel, kCluster);
  const SolveOutcome res = driver.solve(2 * 60.0);
  EXPECT_EQ(res.report.verdict, StatusCode::kInfeasibleCap);
  EXPECT_EQ(res.report.attempts.size(), 1u);  // no pointless retries
  EXPECT_FALSE(res.report.degraded);          // no fallback below feasibility
}

// --- genuine numerical corruption (not synthesized statuses) ---

TEST(FaultInjection, CoefficientCorruptionNeverThrows) {
  const dag::TaskGraph g = small_graph();
  FaultPlan plan;
  plan.seed = 11;
  plan.coefficient_noise_magnitude = 8.0;  // 16 orders of magnitude spread
  const ScopedFaultPlan scope(plan);
  const SolveDriver driver(g, kModel, kCluster);
  const SolveOutcome res = driver.solve(2 * 60.0);
  // The corrupted LP may still "solve" (to a wrong schedule that replay
  // rejects) or fail numerically; either way the driver must return a
  // structured verdict - usable (possibly degraded) or a classified
  // failure - and never leak an exception.
  EXPECT_GE(res.report.attempts.size(), 1u);
  if (!res.report.usable()) {
    EXPECT_NE(res.report.verdict, StatusCode::kOk);
  }
}

// --- the acceptance scenario: sweep with one injected failing cap ---

TEST(FaultInjection, SweepWithOneFailingCapFinishesWithPerCapVerdicts) {
  const dag::TaskGraph g = small_graph();
  const std::vector<double> caps = {2 * 10.0, 2 * 35.0, 2 * 60.0};

  FaultPlan plan;
  plan.fail_attempts = 99;
  plan.forced_status = lp::SolveStatus::kNumericalError;
  plan.only_job_cap = 2 * 35.0;  // only the middle cap fails
  const ScopedFaultPlan scope(plan);

  const auto outcomes = SolveDriver(g, kModel, kCluster).sweep(caps);
  ASSERT_EQ(outcomes.size(), 3u);

  EXPECT_EQ(outcomes[0].report.verdict, StatusCode::kInfeasibleCap);

  EXPECT_EQ(outcomes[1].report.verdict, StatusCode::kSolverNumerical);
  EXPECT_TRUE(outcomes[1].report.degraded);
  EXPECT_TRUE(outcomes[1].report.usable());
  EXPECT_EQ(outcomes[1].report.attempts.size(), 2u);

  EXPECT_TRUE(outcomes[2].ok());
  EXPECT_TRUE(outcomes[2].report.attempts.size() == 1u);

  // And the sweep artifact carries all three verdicts.
  std::vector<std::string> reports;
  for (const auto& o : outcomes) reports.push_back(o.report.to_json());
  const std::string json = reports_to_json(reports);
  EXPECT_NE(json.find("\"verdict\":\"infeasible-cap\""), std::string::npos);
  EXPECT_NE(json.find("\"verdict\":\"solver-numerical\""),
            std::string::npos);
  EXPECT_NE(json.find("\"fallback\":\"static-policy\""), std::string::npos);
  EXPECT_NE(json.find("\"verdict\":\"ok\""), std::string::npos);
}

}  // namespace
}  // namespace powerlim::robust
