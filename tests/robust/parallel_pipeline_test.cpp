// resilient_sweep with workers > 1: the fork-per-cap path must produce
// the same per-cap results as the serial in-process path (each report's
// `result` byte-identical), stream results into the journal so
// --resume composes unchanged, and degrade a cap whose worker dies
// twice to the Static-policy bound instead of losing it.
#include "robust/pipeline.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "apps/benchmarks.h"
#include "machine/power_model.h"
#include "report_parts.h"
#include "robust/fault_injection.h"
#include "scratch_dir.h"

namespace powerlim::robust {
namespace {

const machine::PowerModel kModel{machine::SocketSpec{}};
const machine::ClusterSpec kCluster{};

dag::TaskGraph small_graph() {
  return apps::make_comd({.ranks = 2, .iterations = 3, .seed = 17});
}

void expect_rows_equivalent(const std::vector<SweepRow>& serial,
                            const std::vector<SweepRow>& parallel) {
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].job_cap_watts, parallel[i].job_cap_watts)
        << "row " << i;
    EXPECT_EQ(serial[i].verdict, parallel[i].verdict) << "row " << i;
    EXPECT_EQ(serial[i].degraded, parallel[i].degraded) << "row " << i;
    EXPECT_EQ(serial[i].bound_seconds, parallel[i].bound_seconds)
        << "row " << i;
    EXPECT_EQ(serial[i].fallback, parallel[i].fallback) << "row " << i;
    EXPECT_EQ(report_results(serial[i].report_json),
              report_results(parallel[i].report_json))
        << "row " << i;
  }
}

TEST(ParallelSweep, MatchesSerialRowByRow) {
  const dag::TaskGraph g = small_graph();
  const std::vector<double> caps = {2 * 45.0, 2 * 50.0, 2 * 55.0,
                                    2 * 60.0, 2 * 65.0};

  const auto serial = resilient_sweep(g, kModel, kCluster, caps, {});
  ASSERT_TRUE(serial.ok());

  ResilientSweepOptions popt;
  popt.workers = 3;
  const auto parallel = resilient_sweep(g, kModel, kCluster, caps, popt);
  ASSERT_TRUE(parallel.ok());

  EXPECT_EQ(parallel->solved, 5);
  EXPECT_FALSE(parallel->interrupted);
  expect_rows_equivalent(serial->rows, parallel->rows);

  EXPECT_EQ(parallel->worker_stats.tasks, 5);
  EXPECT_EQ(parallel->worker_stats.clean, 5);
  EXPECT_EQ(parallel->worker_stats.crashes, 0);
  // And the parallel reports carry real supervision telemetry.
  EXPECT_NE(parallel->rows[0].report_json.find("\"isolated\":true"),
            std::string::npos);
  EXPECT_EQ(serial->rows[0].report_json.find("\"isolated\":true"),
            std::string::npos);
}

TEST(ParallelSweep, InjectedCrashRetriesAndStillMatchesSerial) {
  const dag::TaskGraph g = small_graph();
  const std::vector<double> caps = {2 * 45.0, 2 * 55.0, 2 * 65.0};

  // The plan is installed for the serial reference too: worker faults
  // only fire inside forked workers, so the serial run is untouched by
  // construction, and both runs echo the same fault block.
  FaultPlan plan;
  plan.worker_fault = WorkerFault::kCrash;  // every cap's first spawn dies
  ScopedFaultPlan scoped(plan);

  const auto serial = resilient_sweep(g, kModel, kCluster, caps, {});
  ASSERT_TRUE(serial.ok());

  ResilientSweepOptions popt;
  popt.workers = 3;
  const auto parallel = resilient_sweep(g, kModel, kCluster, caps, popt);
  ASSERT_TRUE(parallel.ok());

  EXPECT_EQ(parallel->worker_stats.crashes, 3);
  EXPECT_EQ(parallel->worker_stats.retries, 3);
  EXPECT_EQ(parallel->worker_stats.clean, 3);
  expect_rows_equivalent(serial->rows, parallel->rows);
  // The retry is visible in the telemetry of every surviving report.
  for (const SweepRow& row : parallel->rows) {
    EXPECT_NE(row.report_json.find("\"spawns\":2,\"retries\":1"),
              std::string::npos)
        << row.report_json;
  }
}

TEST(ParallelSweep, WorkerDeadTwiceDegradesToStaticBound) {
  const dag::TaskGraph g = small_graph();
  const std::vector<double> caps = {2 * 45.0, 2 * 55.0, 2 * 65.0};

  FaultPlan plan;
  plan.worker_fault = WorkerFault::kCrash;
  plan.worker_fault_attempts = 2;  // retry dies too
  plan.only_job_cap = caps[1];
  ScopedFaultPlan scoped(plan);

  ResilientSweepOptions popt;
  popt.workers = 2;
  const auto res = resilient_sweep(g, kModel, kCluster, caps, popt);
  ASSERT_TRUE(res.ok());
  ASSERT_EQ(res->rows.size(), 3u);

  EXPECT_EQ(res->rows[0].verdict, StatusCode::kOk);
  EXPECT_EQ(res->rows[2].verdict, StatusCode::kOk);

  const SweepRow& hurt = res->rows[1];
  EXPECT_EQ(hurt.verdict, StatusCode::kWorkerCrashed);
  EXPECT_TRUE(hurt.degraded);
  EXPECT_EQ(hurt.fallback, "static-policy");
  EXPECT_GT(hurt.bound_seconds, 0.0);
  EXPECT_NE(hurt.report_json.find("\"verdict\":\"worker-crashed\""),
            std::string::npos);
  EXPECT_NE(hurt.report_json.find("\"rung\":\"worker\""),
            std::string::npos);

  EXPECT_EQ(res->worker_stats.crashes, 2);
  EXPECT_EQ(res->worker_stats.retries, 1);
  EXPECT_EQ(res->worker_stats.clean, 2);
  EXPECT_FALSE(res->interrupted);
}

TEST(ParallelSweep, InjectedOomDegradesAsResourceExhausted) {
  const dag::TaskGraph g = small_graph();
  const std::vector<double> caps = {2 * 50.0};

  FaultPlan plan;
  plan.worker_fault = WorkerFault::kOom;
  plan.worker_fault_attempts = 2;
  ScopedFaultPlan scoped(plan);

  ResilientSweepOptions popt;
  popt.workers = 2;
  const auto res = resilient_sweep(g, kModel, kCluster, caps, popt);
  ASSERT_TRUE(res.ok());
  ASSERT_EQ(res->rows.size(), 1u);
  EXPECT_EQ(res->rows[0].verdict, StatusCode::kResourceExhausted);
  EXPECT_TRUE(res->rows[0].degraded);
  EXPECT_EQ(res->rows[0].fallback, "static-policy");
  EXPECT_EQ(res->worker_stats.resource_exhausted, 2);
}

TEST(ParallelSweep, JournaledParallelRunResumesAndMatches) {
  const dag::TaskGraph g = small_graph();
  const std::vector<double> caps = {2 * 45.0, 2 * 55.0, 2 * 65.0};
  const ScratchDir scratch("parallel_pipeline");
  ASSERT_TRUE(scratch.ok());
  const std::string path = scratch.path("parallel_resume.j");

  ResilientSweepOptions popt;
  popt.workers = 2;
  popt.journal_path = path;
  const auto first = resilient_sweep(g, kModel, kCluster, caps, popt);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->solved, 3);

  // Resuming (serial *or* parallel) replays the journaled bytes - the
  // journal stores exactly what a worker shipped.
  popt.resume = true;
  const auto again = resilient_sweep(g, kModel, kCluster, caps, popt);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->resumed, 3);
  EXPECT_EQ(again->solved, 0);
  ASSERT_EQ(again->rows.size(), 3u);
  for (std::size_t i = 0; i < caps.size(); ++i) {
    EXPECT_TRUE(again->rows[i].from_journal);
    EXPECT_EQ(again->rows[i].report_json, first->rows[i].report_json);
  }

  ResilientSweepOptions sopt;
  sopt.journal_path = path;
  sopt.resume = true;
  const auto serial_resume = resilient_sweep(g, kModel, kCluster, caps, sopt);
  ASSERT_TRUE(serial_resume.ok());
  EXPECT_EQ(serial_resume->resumed, 3);
  EXPECT_EQ(serial_resume->rows[0].report_json, first->rows[0].report_json);
}

TEST(ParallelSweep, ExpiredDeadlineInterruptsAndResumes) {
  const dag::TaskGraph g = small_graph();
  const std::vector<double> caps = {2 * 45.0, 2 * 55.0};
  const ScratchDir scratch("parallel_pipeline");
  ASSERT_TRUE(scratch.ok());
  const std::string path = scratch.path("parallel_deadline.j");

  ResilientSweepOptions popt;
  popt.workers = 2;
  popt.journal_path = path;
  popt.deadline = util::Deadline::after(0.0);
  const auto res = resilient_sweep(g, kModel, kCluster, caps, popt);
  ASSERT_TRUE(res.ok());
  EXPECT_TRUE(res->interrupted);
  EXPECT_EQ(res->stop, util::StopReason::kDeadline);
  EXPECT_TRUE(res->rows.empty());

  popt.deadline = {};
  popt.resume = true;
  const auto done = resilient_sweep(g, kModel, kCluster, caps, popt);
  ASSERT_TRUE(done.ok());
  EXPECT_FALSE(done->interrupted);
  EXPECT_EQ(done->rows.size(), 2u);
}

}  // namespace
}  // namespace powerlim::robust
