// The certificate gate inside SolveDriver: every accepted bound is
// re-verified exactly; a corrupted solution turns into the
// `certificate-failed` status, walks the ladder, and degrades like any
// other solver fault. The journal's trust rule: only a current record
// (this build's report schema and, for an ok verdict, a passed
// certificate) stands for its cap, so a resume re-solves an unproven or
// old-schema record once and serves the fresh record from then on.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "apps/exchange.h"
#include "journal_records.h"
#include "machine/power_model.h"
#include "robust/fault_injection.h"
#include "robust/journal.h"
#include "robust/pipeline.h"
#include "robust/solve_driver.h"
#include "scratch_dir.h"

namespace powerlim::robust {
namespace {

const machine::PowerModel& test_model() {
  static const machine::PowerModel m{machine::SocketSpec{}};
  return m;
}

double comfortable_cap(const dag::TaskGraph& g) {
  // SolveDriver keeps a pointer to the cluster: it must outlive `probe`.
  const machine::ClusterSpec cluster;
  const SolveDriver probe(g, test_model(), cluster, {});
  const SolveOutcome out = probe.solve(1e6);
  return out.report.min_feasible_power_watts * 1.3;
}

TEST(CertificateGate, CleanSolveIsVerifiedAndAccepted) {
  const dag::TaskGraph g = apps::two_rank_exchange();
  const machine::ClusterSpec cluster;
  const SolveDriver driver(g, test_model(), cluster, {});
  const SolveOutcome out = driver.solve(comfortable_cap(g));
  ASSERT_EQ(out.report.verdict, StatusCode::kOk);
  EXPECT_TRUE(out.report.certificate.checked);
  EXPECT_TRUE(out.report.certificate.ok);
  EXPECT_TRUE(out.report.certificate.duality_checked);
  EXPECT_LT(out.report.certificate.duality_gap, 1e-6);
  EXPECT_TRUE(out.report.lint.checked);
  EXPECT_EQ(out.report.lint.errors, 0);
  const std::string json = out.report.to_json();
  EXPECT_NE(json.find("\"certificate\":{\"checked\":true,\"ok\":true"),
            std::string::npos);
}

TEST(CertificateGate, CorruptedSolutionFailsEveryRungAndDegrades) {
  // corrupt_solution_epsilon shrinks the claimed bound after each solve;
  // replay cannot see it (the schedule is untouched), so only the
  // certificate catches it - on every rung, exhausting the ladder.
  const dag::TaskGraph g = apps::two_rank_exchange();
  const machine::ClusterSpec cluster;
  const double cap = comfortable_cap(g);

  FaultPlan plan;
  plan.corrupt_solution_epsilon = 1e-3;
  ScopedFaultPlan scoped(plan);

  const SolveDriver driver(g, test_model(), cluster, {});
  const SolveOutcome out = driver.solve(cap);

  EXPECT_EQ(out.report.verdict, StatusCode::kCertificateFailed);
  EXPECT_TRUE(out.report.degraded);
  EXPECT_EQ(out.report.fallback, "static-policy");
  EXPECT_GE(out.report.bound_seconds, 0.0);
  ASSERT_FALSE(out.report.attempts.empty());
  for (const SolveAttempt& att : out.report.attempts) {
    EXPECT_EQ(att.outcome, StatusCode::kCertificateFailed) << att.rung;
  }
  // The last failing verdict is echoed into the serialized report.
  EXPECT_TRUE(out.report.certificate.checked);
  EXPECT_FALSE(out.report.certificate.ok);
  const std::string json = out.report.to_json();
  EXPECT_NE(json.find("\"verdict\":\"certificate-failed\""),
            std::string::npos);
  EXPECT_NE(json.find("\"schema_version\":" +
                      std::to_string(kRunReportSchemaVersion)),
            std::string::npos);
}

TEST(CertificateGate, CorruptionScopedToOneCapOnlyFailsThatCap) {
  const dag::TaskGraph g = apps::two_rank_exchange();
  const machine::ClusterSpec cluster;
  const double cap = comfortable_cap(g);

  FaultPlan plan;
  plan.corrupt_solution_epsilon = 1e-3;
  plan.only_job_cap = cap;
  plan.cap_tolerance = 1e-6 * cap;
  ScopedFaultPlan scoped(plan);

  const SolveDriver driver(g, test_model(), cluster, {});
  const std::vector<SolveOutcome> outs = driver.sweep({cap, cap * 1.5});
  ASSERT_EQ(outs.size(), 2u);
  EXPECT_EQ(outs[0].report.verdict, StatusCode::kCertificateFailed);
  EXPECT_TRUE(outs[0].report.degraded);
  EXPECT_EQ(outs[1].report.verdict, StatusCode::kOk);
  EXPECT_TRUE(outs[1].report.certificate.ok);
}

TEST(CertificateGate, VerificationCanBeDisabled) {
  const dag::TaskGraph g = apps::two_rank_exchange();
  const machine::ClusterSpec cluster;

  SolveDriverOptions opt;
  opt.verify_certificate = false;
  FaultPlan plan;
  plan.corrupt_solution_epsilon = 1e-3;
  ScopedFaultPlan scoped(plan);

  const SolveDriver driver(g, test_model(), cluster, opt);
  const SolveOutcome out = driver.solve(comfortable_cap(g));
  // Without the gate the corrupted bound sails through - which is
  // exactly why the gate defaults on.
  EXPECT_EQ(out.report.verdict, StatusCode::kOk);
  EXPECT_FALSE(out.report.certificate.checked);
}

TEST(CertificateGate, StatusRoundTrips) {
  EXPECT_STREQ(to_string(StatusCode::kCertificateFailed),
               "certificate-failed");
  StatusCode code = StatusCode::kOk;
  ASSERT_TRUE(status_code_from_string("certificate-failed", &code));
  EXPECT_EQ(code, StatusCode::kCertificateFailed);
}

class JournalTrustTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(scratch_.ok());
    path_ = scratch_.path("trust.journal");
  }

  ScratchDir scratch_{"trust"};
  std::string path_;
};

TEST_F(JournalTrustTest, OnlyCurrentRecordsStand) {
  JournalEntry ok;
  ok.verdict = StatusCode::kOk;
  ok.report_json = report_json(kPassedCertificate);

  JournalEntry old_schema = ok;
  old_schema.report_json = report_json(kPassedCertificate, /*schema=*/11);

  JournalEntry failed_cert = ok;
  failed_cert.report_json =
      report_json("\"certificate\":{\"checked\":true,\"ok\":false}");

  JournalEntry unchecked = ok;
  unchecked.report_json = report_json("\"certificate\":{\"checked\":false}");

  // A degraded record carries no LP claim: the schema alone decides.
  JournalEntry degraded;
  degraded.verdict = StatusCode::kSolverNumerical;
  degraded.degraded = true;
  degraded.report_json = report_json("");
  JournalEntry old_degraded = degraded;
  old_degraded.report_json = report_json("", /*schema=*/11);

  const std::vector<std::pair<JournalEntry, bool>> cases = {
      {ok, true},          {old_schema, false}, {failed_cert, false},
      {unchecked, false},  {degraded, true},    {old_degraded, false}};
  {
    Result<SweepJournal> journal = SweepJournal::open(path_);
    ASSERT_TRUE(journal.ok());
    for (std::size_t i = 0; i < cases.size(); ++i) {
      JournalEntry e = cases[i].first;
      e.job_cap_watts = 10.0 * static_cast<double>(i + 1);
      ASSERT_TRUE(journal.value().append(e).ok());
      EXPECT_EQ(journal->contains(e.job_cap_watts), cases[i].second) << i;
    }
    EXPECT_EQ(journal->recovery().stale_records, 4);
  }
  Result<SweepJournal> journal = SweepJournal::open(path_);
  ASSERT_TRUE(journal.ok());
  EXPECT_EQ(journal->recovery().records, 2);
  EXPECT_EQ(journal->recovery().stale_records, 4);
  for (std::size_t i = 0; i < cases.size(); ++i) {
    EXPECT_EQ(journal->contains(10.0 * static_cast<double>(i + 1)),
              cases[i].second)
        << i;
  }
  // A stale record never blocks the current record that replaces it.
  JournalEntry fresh = ok;
  fresh.job_cap_watts = 20.0;
  ASSERT_TRUE(journal.value().append(fresh).ok());
  EXPECT_TRUE(journal->contains(20.0));
  EXPECT_EQ(journal->recovery().duplicates_dropped, 0);
}

TEST_F(JournalTrustTest, TamperedJournalRecordIsResolvedOnResume) {
  const dag::TaskGraph g = apps::two_rank_exchange();
  const machine::ClusterSpec cluster;
  const double cap = comfortable_cap(g);

  // Seed the journal with a fabricated kOk record for the cap whose
  // report carries no passed certificate (as a tampered journal would).
  {
    Result<SweepJournal> journal = SweepJournal::open(path_);
    ASSERT_TRUE(journal.ok());
    JournalEntry fake;
    fake.job_cap_watts = cap;
    fake.verdict = StatusCode::kOk;
    fake.bound_seconds = 1e-6;  // absurd claim a resume must not echo
    fake.report_json =
        report_json("\"verdict\":\"ok\",\"certificate\":{\"checked\":false}");
    ASSERT_TRUE(journal.value().append(fake).ok());
  }

  ResilientSweepOptions opt;
  opt.journal_path = path_;
  opt.resume = true;
  const auto swept =
      resilient_sweep(g, test_model(), cluster, {cap}, opt);
  ASSERT_TRUE(swept.ok()) << swept.status().to_string();
  ASSERT_EQ(swept->rows.size(), 1u);
  // Not resumed: the untrusted record was re-solved for real.
  EXPECT_EQ(swept->resumed, 0);
  EXPECT_EQ(swept->solved, 1);
  EXPECT_FALSE(swept->rows[0].from_journal);
  EXPECT_EQ(swept->rows[0].verdict, StatusCode::kOk);
  EXPECT_GT(swept->rows[0].bound_seconds, 1e-3);

  // The fresh record stands from now on: the next resume serves it
  // instead of solving the cap again.
  const auto again = resilient_sweep(g, test_model(), cluster, {cap}, opt);
  ASSERT_TRUE(again.ok()) << again.status().to_string();
  EXPECT_EQ(again->resumed, 1);
  EXPECT_EQ(again->solved, 0);
  ASSERT_EQ(again->rows.size(), 1u);
  EXPECT_TRUE(again->rows[0].from_journal);
  EXPECT_EQ(again->rows[0].bound_seconds, swept->rows[0].bound_seconds);
}

// A record an older build journaled (here: schema 11, CRC recomputed so
// recovery takes it as intact) is re-solved once; every row the resume
// returns carries this build's schema, and the next resume takes every
// cap from the journal.
TEST_F(JournalTrustTest, OldSchemaRecordIsResolvedOnceOnResume) {
  const dag::TaskGraph g = apps::two_rank_exchange();
  const machine::ClusterSpec cluster;
  const double cap = comfortable_cap(g);
  const std::vector<double> caps = {cap, cap * 1.25, cap * 1.5};

  ResilientSweepOptions opt;
  opt.journal_path = path_;
  opt.resume = true;
  const auto first = resilient_sweep(g, test_model(), cluster, caps, opt);
  ASSERT_TRUE(first.ok()) << first.status().to_string();
  ASSERT_EQ(first->solved, 3);

  edit_journal_records(path_, [](int index, const std::string& payload) {
    return index == 0 ? with_schema(payload, 11) : payload;
  });

  const std::string current =
      "{\"schema_version\":" + std::to_string(kRunReportSchemaVersion) + ",";
  const auto resumed = resilient_sweep(g, test_model(), cluster, caps, opt);
  ASSERT_TRUE(resumed.ok()) << resumed.status().to_string();
  EXPECT_EQ(resumed->resumed, 2);
  EXPECT_EQ(resumed->solved, 1);
  EXPECT_EQ(resumed->recovery.stale_records, 1);
  ASSERT_EQ(resumed->rows.size(), caps.size());
  EXPECT_FALSE(resumed->rows[0].from_journal);
  for (const SweepRow& row : resumed->rows) {
    EXPECT_EQ(row.report_json.rfind(current, 0), 0u) << row.report_json;
  }

  const auto again = resilient_sweep(g, test_model(), cluster, caps, opt);
  ASSERT_TRUE(again.ok()) << again.status().to_string();
  EXPECT_EQ(again->resumed, static_cast<int>(caps.size()));
  EXPECT_EQ(again->solved, 0);
}

TEST_F(JournalTrustTest, VerifiedRecordIsStillResumed) {
  const dag::TaskGraph g = apps::two_rank_exchange();
  const machine::ClusterSpec cluster;
  const double cap = comfortable_cap(g);

  ResilientSweepOptions opt;
  opt.journal_path = path_;
  opt.resume = true;

  const auto first = resilient_sweep(g, test_model(), cluster, {cap}, opt);
  ASSERT_TRUE(first.ok());
  ASSERT_EQ(first->solved, 1);

  const auto second = resilient_sweep(g, test_model(), cluster, {cap}, opt);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->resumed, 1);
  EXPECT_EQ(second->solved, 0);
  ASSERT_EQ(second->rows.size(), 1u);
  EXPECT_TRUE(second->rows[0].from_journal);
}

}  // namespace
}  // namespace powerlim::robust
