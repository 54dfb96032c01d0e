// The certificate gate inside SolveDriver: every accepted bound is
// re-verified exactly; a corrupted solution turns into the
// `certificate-failed` status, walks the ladder, and degrades like any
// other solver fault; journal resume refuses to trust unverified
// records.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "apps/exchange.h"
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

TEST_F(JournalTrustTest, PredicateRequiresPassedCertificateForOkRecords) {
  JournalEntry ok;
  ok.verdict = StatusCode::kOk;
  ok.report_json =
      "{\"schema_version\":4,\"certificate\":{\"checked\":true,\"ok\":true,"
      "\"duality_checked\":true}}";
  EXPECT_TRUE(journal_entry_trusted(ok, /*require_certificate=*/true));

  JournalEntry old_schema = ok;
  old_schema.report_json = "{\"schema_version\":3,\"verdict\":\"ok\"}";
  EXPECT_FALSE(journal_entry_trusted(old_schema, true));
  EXPECT_TRUE(journal_entry_trusted(old_schema, false));

  JournalEntry failed_cert = ok;
  failed_cert.report_json =
      "{\"schema_version\":4,\"certificate\":{\"checked\":true,"
      "\"ok\":false}}";
  EXPECT_FALSE(journal_entry_trusted(failed_cert, true));

  JournalEntry unchecked = ok;
  unchecked.report_json =
      "{\"schema_version\":4,\"certificate\":{\"checked\":false}}";
  EXPECT_FALSE(journal_entry_trusted(unchecked, true));

  // Degraded / failed records carry no LP claim: always trusted.
  JournalEntry degraded;
  degraded.verdict = StatusCode::kSolverNumerical;
  degraded.degraded = true;
  degraded.report_json = "{\"schema_version\":3}";
  EXPECT_TRUE(journal_entry_trusted(degraded, true));
}

TEST_F(JournalTrustTest, TamperedJournalRecordIsResolvedOnResume) {
  const dag::TaskGraph g = apps::two_rank_exchange();
  const machine::ClusterSpec cluster;
  const double cap = comfortable_cap(g);

  // Seed the journal with a fabricated kOk record for the cap whose
  // report carries no passed certificate (as a tampered or pre-schema-4
  // journal would).
  {
    Result<SweepJournal> journal = SweepJournal::open(path_);
    ASSERT_TRUE(journal.ok());
    JournalEntry fake;
    fake.job_cap_watts = cap;
    fake.verdict = StatusCode::kOk;
    fake.bound_seconds = 1e-6;  // absurd claim a resume must not echo
    fake.report_json = "{\"schema_version\":3,\"verdict\":\"ok\"}";
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
