// resilient_sweep semantics: journaled rows, resume merging, warm-start
// checkpoints, and interruption classification - all in-process. The
// process-kill crash proof lives in tests/tools/resume_kill_test.cpp.
#include "robust/pipeline.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "apps/benchmarks.h"
#include "machine/power_model.h"
#include "report_parts.h"
#include "scratch_dir.h"

namespace powerlim::robust {
namespace {

const machine::PowerModel kModel{machine::SocketSpec{}};
const machine::ClusterSpec kCluster{};

dag::TaskGraph small_graph() {
  return apps::make_comd({.ranks = 2, .iterations = 3, .seed = 17});
}

/// A report's telemetry without its leading wall_ms member. A resumed
/// sweep warm-starts from the journal's checkpoint, so it must take the
/// same pivots as an uninterrupted one: every counter matches, only the
/// clock differs.
std::string telemetry_after_wall_ms(const std::string& json) {
  const std::string telemetry = report_telemetry(json);
  return telemetry.substr(telemetry.find(','));
}

void expect_rows_identical(const std::vector<SweepRow>& a,
                           const std::vector<SweepRow>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].job_cap_watts, b[i].job_cap_watts) << "row " << i;
    EXPECT_EQ(a[i].verdict, b[i].verdict) << "row " << i;
    EXPECT_EQ(a[i].degraded, b[i].degraded) << "row " << i;
    EXPECT_EQ(a[i].bound_seconds, b[i].bound_seconds) << "row " << i;
    EXPECT_EQ(a[i].fallback, b[i].fallback) << "row " << i;
    EXPECT_EQ(report_results(a[i].report_json),
              report_results(b[i].report_json))
        << "row " << i;
    EXPECT_EQ(telemetry_after_wall_ms(a[i].report_json),
              telemetry_after_wall_ms(b[i].report_json))
        << "row " << i;
  }
}

TEST(ResilientSweep, UnjournaledMatchesSweepCaps) {
  const dag::TaskGraph g = small_graph();
  const std::vector<double> caps = {2 * 45.0, 2 * 55.0, 2 * 65.0};
  const auto res = resilient_sweep(g, kModel, kCluster, caps, {});
  ASSERT_TRUE(res.ok());
  ASSERT_EQ(res->rows.size(), caps.size());
  EXPECT_EQ(res->solved, 3);
  EXPECT_EQ(res->resumed, 0);
  EXPECT_FALSE(res->interrupted);

  const std::vector<SolveOutcome> plain =
      SolveDriver(g, kModel, kCluster).sweep(caps);
  for (std::size_t i = 0; i < caps.size(); ++i) {
    EXPECT_EQ(res->rows[i].verdict, plain[i].report.verdict);
    EXPECT_EQ(res->rows[i].bound_seconds, plain[i].report.bound_seconds);
    EXPECT_FALSE(res->rows[i].from_journal);
  }
}

TEST(ResilientSweep, ResumedRunMergesIdenticalRows) {
  const dag::TaskGraph g = small_graph();
  const std::vector<double> caps = {2 * 45.0, 2 * 55.0, 2 * 65.0};
  const ScratchDir scratch("resume");
  ASSERT_TRUE(scratch.ok());
  const std::string path = scratch.path("resume_merge");

  ResilientSweepOptions jopt;
  jopt.journal_path = path;
  const auto first = resilient_sweep(g, kModel, kCluster, caps, jopt);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->solved, 3);

  jopt.resume = true;
  const auto second = resilient_sweep(g, kModel, kCluster, caps, jopt);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->solved, 0);
  EXPECT_EQ(second->resumed, 3);
  for (const SweepRow& row : second->rows) {
    EXPECT_TRUE(row.from_journal);
  }
  expect_rows_identical(first->rows, second->rows);
  // Journal-recovered reports are byte-identical, wall_ms included:
  // they are the first run's bytes.
  EXPECT_EQ(first->rows[0].report_json, second->rows[0].report_json);
}

TEST(ResilientSweep, PartialJournalResumesOnlyMissingCaps) {
  const dag::TaskGraph g = small_graph();
  const std::vector<double> prefix = {2 * 45.0, 2 * 55.0};
  const std::vector<double> full = {2 * 45.0, 2 * 55.0, 2 * 65.0};
  const ScratchDir scratch("resume");
  ASSERT_TRUE(scratch.ok());
  const std::string path = scratch.path("resume_partial");

  ResilientSweepOptions jopt;
  jopt.journal_path = path;
  // Simulates an interrupted run: only the first two caps completed.
  ASSERT_TRUE(resilient_sweep(g, kModel, kCluster, prefix, jopt).ok());

  jopt.resume = true;
  const auto resumed = resilient_sweep(g, kModel, kCluster, full, jopt);
  ASSERT_TRUE(resumed.ok());
  EXPECT_EQ(resumed->resumed, 2);
  EXPECT_EQ(resumed->solved, 1);
  ASSERT_EQ(resumed->rows.size(), 3u);
  EXPECT_TRUE(resumed->rows[0].from_journal);
  EXPECT_TRUE(resumed->rows[1].from_journal);
  EXPECT_FALSE(resumed->rows[2].from_journal);

  // The merged result equals an uninterrupted sweep, modulo wall_ms.
  const auto fresh = resilient_sweep(g, kModel, kCluster, full, {});
  ASSERT_TRUE(fresh.ok());
  expect_rows_identical(fresh->rows, resumed->rows);
}

TEST(ResilientSweep, JournalPersistsWarmStartCheckpoints) {
  const dag::TaskGraph g = small_graph();
  const ScratchDir scratch("resume");
  ASSERT_TRUE(scratch.ok());
  const std::string path = scratch.path("resume_warm");
  ResilientSweepOptions jopt;
  jopt.journal_path = path;
  ASSERT_TRUE(
      resilient_sweep(g, kModel, kCluster, {2 * 50.0}, jopt).ok());

  auto j = SweepJournal::open(path);
  ASSERT_TRUE(j.ok());
  EXPECT_GE(j->recovery().basis_records, 1);
  bool any_valid = false;
  for (const lp::WarmStart& w : j->warm_starts()) {
    any_valid = any_valid || w.valid();
  }
  EXPECT_TRUE(any_valid);
}

TEST(ResilientSweep, PreCancelledSweepSolvesNothingAndIsResumable) {
  const dag::TaskGraph g = small_graph();
  util::CancelToken token;
  token.cancel();
  ResilientSweepOptions opt;
  opt.deadline = util::Deadline::cancel_only(&token);
  const auto res = resilient_sweep(g, kModel, kCluster, {2 * 50.0}, opt);
  ASSERT_TRUE(res.ok());
  EXPECT_TRUE(res->rows.empty());
  EXPECT_TRUE(res->interrupted);
  EXPECT_EQ(res->stop, util::StopReason::kCancelled);
}

TEST(ResilientSweep, CancelledSweepStillServesJournaledRows) {
  const dag::TaskGraph g = small_graph();
  const ScratchDir scratch("resume");
  ASSERT_TRUE(scratch.ok());
  const std::string path = scratch.path("resume_cancel_serve");
  ResilientSweepOptions jopt;
  jopt.journal_path = path;
  ASSERT_TRUE(
      resilient_sweep(g, kModel, kCluster, {2 * 50.0}, jopt).ok());

  // Resuming with a tripped token: the journaled cap is served from
  // disk (free), only the missing cap is skipped.
  util::CancelToken token;
  token.cancel();
  jopt.resume = true;
  jopt.deadline = util::Deadline::cancel_only(&token);
  const auto res =
      resilient_sweep(g, kModel, kCluster, {2 * 50.0, 2 * 60.0}, jopt);
  ASSERT_TRUE(res.ok());
  ASSERT_EQ(res->rows.size(), 1u);
  EXPECT_TRUE(res->rows[0].from_journal);
  EXPECT_TRUE(res->interrupted);
}

TEST(ResilientSweep, UnwritableJournalFailsTheSweep) {
  const dag::TaskGraph g = small_graph();
  ResilientSweepOptions opt;
  opt.journal_path = "/nonexistent-dir-xyz/journal";
  const auto res = resilient_sweep(g, kModel, kCluster, {2 * 50.0}, opt);
  ASSERT_FALSE(res.ok());
  EXPECT_EQ(res.status().code(), StatusCode::kBadInput);
}

}  // namespace
}  // namespace powerlim::robust
