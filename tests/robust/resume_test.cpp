// resilient_sweep semantics: journaled rows, resume merging, journals
// left by older builds, and interruption classification - all
// in-process. The process-kill crash proof lives in
// tests/tools/resume_kill_test.cpp.
#include "robust/pipeline.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
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

/// A report's telemetry without its leading wall_ms member. Every cap
/// solves cold, so a resumed sweep takes the same pivots as an
/// uninterrupted one: every counter matches, only the clock differs.
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

/// One frame in the journal's framing, as every build writes them.
std::string frame(char tag, const std::string& payload) {
  char crc[16];
  std::snprintf(crc, sizeof crc, "%08x",
                static_cast<unsigned>(crc32(payload.data(), payload.size())));
  return std::string(1, tag) + " " + crc + " " +
         std::to_string(payload.size()) + "\n" + payload + "\n";
}

// Older builds appended a `B` basis checkpoint after every row. Such a
// journal, with request intents and an epoch stamp besides, must open
// whole, replicate, resume without re-solving a proven cap, and compact
// to a journal without its `B` frames.
TEST(ResilientSweep, JournalWithLegacyBasisCheckpointsResumesAndCompacts) {
  const dag::TaskGraph g = small_graph();
  const ScratchDir scratch("resume");
  ASSERT_TRUE(scratch.ok());
  const std::vector<double> caps = {2 * 50.0, 2 * 60.0, 2 * 70.0};
  const auto fresh = resilient_sweep(g, kModel, kCluster, caps, {});
  ASSERT_TRUE(fresh.ok());
  ASSERT_EQ(fresh->rows.size(), caps.size());

  const std::string basis = "-\n4 2 2 0 2 0 0 2\n";
  JournalRequest intent;
  intent.id = "req-1";
  intent.kind = "sweep";
  intent.caps = caps;
  std::string bytes = "powerlim-journal v1\n" + frame('E', "epoch=3") +
                      frame('Q', serialize_journal_request(intent));
  for (const SweepRow& row : fresh->rows) {
    bytes += frame('R', serialize_journal_entry(row)) + frame('B', basis);
  }
  const std::string path = scratch.path("legacy_basis");
  std::ofstream(path, std::ios::binary) << bytes;

  {
    auto j = SweepJournal::open(path);
    ASSERT_TRUE(j.ok()) << j.status().to_string();
    EXPECT_TRUE(j->recovery().clean());
    EXPECT_EQ(j->recovery().records, 3);
    EXPECT_EQ(j->recovery().request_records, 1);
    EXPECT_EQ(j->epoch(), 3u);
    EXPECT_EQ(std::filesystem::file_size(path), bytes.size());
  }

  // A standby replicating the journal applies its bytes verbatim.
  {
    auto replica = SweepJournal::open(scratch.path("legacy_replica"));
    ASSERT_TRUE(replica.ok());
    ASSERT_TRUE(replica.value()
                    .append_raw(journal_header_bytes(),
                                bytes.substr(journal_header_bytes()))
                    .ok());
    EXPECT_EQ(replica->entries().size(), 3u);
    EXPECT_EQ(replica->epoch(), 3u);
  }

  ResilientSweepOptions ropt;
  ropt.journal_path = path;
  ropt.resume = true;
  const auto resumed = resilient_sweep(g, kModel, kCluster, caps, ropt);
  ASSERT_TRUE(resumed.ok());
  EXPECT_EQ(resumed->solved, 0);
  EXPECT_EQ(resumed->resumed, 3);
  EXPECT_FALSE(resumed->recovery.quarantined_file);
  EXPECT_EQ(resumed->recovery.quarantined_bytes, 0);
  expect_rows_identical(fresh->rows, resumed->rows);

  const CompactResult compacted = compact_journal(path);
  ASSERT_TRUE(compacted.status.ok()) << compacted.status.to_string();
  EXPECT_EQ(compacted.basis_dropped, 3);
  EXPECT_EQ(compacted.records_kept, 3);
  std::ifstream in(path, std::ios::binary);
  for (std::string line; std::getline(in, line);) {
    EXPECT_NE(line.rfind("B ", 0), 0u) << line;
  }
  auto j = SweepJournal::open(path);
  ASSERT_TRUE(j.ok());
  EXPECT_EQ(j->entries().size(), 3u);
  EXPECT_EQ(j->epoch(), 3u);
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
