// The journal's failover-epoch layer and replication apply path:
//
//   * `E` epoch stamps recover across reopen, are idempotent at the
//     same value, and never regress;
//   * a pinned handle is fenced durably - once any writer stamps a
//     higher epoch into the shared file, every later append through
//     the stale handle refuses with kStaleEpoch (the dual-primary
//     write race has a deterministic loser);
//   * append_raw replicates verbatim bytes only at the exact durable
//     offset (kBadInput otherwise) and only when they parse as whole
//     intact frames (kWireMalformed otherwise) - a replica can never
//     be talked into a journal the recovery scan would quarantine;
//   * `journal compact` keeps exactly the records recovery stands (the
//     first current record per cap), pending request intents, and one
//     epoch stamp, atomically enough that a crash before the rename
//     leaves the original journal untouched.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "journal_records.h"
#include "robust/journal.h"
#include "robust/status.h"
#include "scratch_dir.h"

namespace powerlim::robust {
namespace {

class JournalEpochTest : public ::testing::Test {
 protected:
  ScratchDir scratch_{"epoch"};
  std::string path_;

  void SetUp() override {
    ASSERT_TRUE(scratch_.ok());
    path_ = scratch_.path("epoch.journal");
  }

  static std::string slurp(const std::string& p) {
    std::ifstream f(p, std::ios::binary);
    std::ostringstream ss;
    ss << f.rdbuf();
    return ss.str();
  }

  /// A kOk entry whose RunReport passes the certificate re-check.
  static JournalEntry proven(double cap, double bound) {
    JournalEntry e;
    e.job_cap_watts = cap;
    e.verdict = StatusCode::kOk;
    e.bound_seconds = bound;
    e.report_json = report_json(kPassedCertificate);
    return e;
  }

  /// A kOk entry whose certificate fails the re-check.
  static JournalEntry unproven(double cap) {
    JournalEntry e = proven(cap, 1.0);
    e.report_json =
        report_json("\"certificate\":{\"checked\":true,\"ok\":false}");
    return e;
  }
};

TEST_F(JournalEpochTest, FreshJournalIsExactlyTheHeader) {
  auto j = SweepJournal::open(path_);
  ASSERT_TRUE(j.ok());
  EXPECT_EQ(j.value().size_bytes(), journal_header_bytes());
  EXPECT_EQ(j.value().epoch(), 0u);
  EXPECT_EQ(slurp(path_).size(), journal_header_bytes());
}

TEST_F(JournalEpochTest, EpochStampsRecoverAndNeverRegress) {
  {
    auto j = SweepJournal::open(path_);
    ASSERT_TRUE(j.ok());
    EXPECT_TRUE(j.value().advance_epoch(3).ok());
    EXPECT_EQ(j.value().epoch(), 3u);
    // Idempotent at the same value: no new bytes.
    const std::uint64_t size = j.value().size_bytes();
    EXPECT_TRUE(j.value().advance_epoch(3).ok());
    EXPECT_EQ(j.value().size_bytes(), size);
    // Regression refused.
    const Status st = j.value().advance_epoch(2);
    EXPECT_EQ(st.code(), StatusCode::kStaleEpoch) << st.to_string();
    EXPECT_EQ(j.value().epoch(), 3u);
  }
  auto reopened = SweepJournal::open(path_);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ(reopened.value().epoch(), 3u);
  EXPECT_EQ(reopened.value().recovery().epoch_records, 1);
}

TEST_F(JournalEpochTest, PinnedHandleIsFencedByForeignEpoch) {
  auto a = SweepJournal::open(path_);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(a.value().advance_epoch(1).ok());
  a.value().pin_epoch(1);
  ASSERT_TRUE(a.value().append(proven(60, 2.0)).ok());

  // A promoted standby (second handle on the same file) stamps epoch 2.
  auto b = SweepJournal::open(path_);
  ASSERT_TRUE(b.ok());
  ASSERT_TRUE(b.value().advance_epoch(2).ok());
  b.value().pin_epoch(2);

  // The deposed handle's next append loses durably, whatever the kind.
  EXPECT_EQ(a.value().append(proven(70, 1.8)).code(), StatusCode::kStaleEpoch);
  JournalRequest req;
  req.id = "r1";
  req.kind = "bound";
  req.caps = {70};
  EXPECT_EQ(a.value().append_request(req).code(), StatusCode::kStaleEpoch);

  // The new primary's handle still writes.
  EXPECT_TRUE(b.value().append(proven(70, 1.8)).ok());

  // Nothing from the fenced handle landed: reopen sees b's history.
  auto fresh = SweepJournal::open(path_);
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(fresh.value().epoch(), 2u);
  ASSERT_EQ(fresh.value().entries().size(), 2u);
  EXPECT_TRUE(fresh.value().contains(60));
  EXPECT_TRUE(fresh.value().contains(70));
}

TEST_F(JournalEpochTest, AppendRawReplicatesVerbatim) {
  // Build a primary journal with a request intent, rows, and an epoch.
  const std::string primary_path = path_ + ".primary";
  {
    auto p = SweepJournal::open(primary_path);
    ASSERT_TRUE(p.ok());
    ASSERT_TRUE(p.value().advance_epoch(2).ok());
    JournalRequest req;
    req.id = "q";
    req.kind = "sweep";
    req.caps = {60, 70};
    ASSERT_TRUE(p.value().append_request(req).ok());
    ASSERT_TRUE(p.value().append(proven(60, 2.0)).ok());
    ASSERT_TRUE(p.value().append(proven(70, 1.8)).ok());
  }
  const std::string bytes = slurp(primary_path);
  ASSERT_GT(bytes.size(), journal_header_bytes());

  // Replay everything after the header into a fresh replica.
  auto r = SweepJournal::open(path_);
  ASSERT_TRUE(r.ok());
  const Status st = r.value().append_raw(journal_header_bytes(),
                                  bytes.substr(journal_header_bytes()));
  ASSERT_TRUE(st.ok()) << st.to_string();
  EXPECT_EQ(slurp(path_), bytes) << "replica must be byte-identical";
  EXPECT_EQ(r.value().epoch(), 2u);
  EXPECT_EQ(r.value().entries().size(), 2u);
  EXPECT_EQ(r.value().requests().size(), 1u);
  std::remove(primary_path.c_str());
}

TEST_F(JournalEpochTest, AppendRawRefusesWrongOffset) {
  auto j = SweepJournal::open(path_);
  ASSERT_TRUE(j.ok());
  ASSERT_TRUE(j.value().append(proven(60, 2.0)).ok());
  const std::uint64_t size = j.value().size_bytes();
  const std::string before = slurp(path_);

  // A frame offered at a stale offset (would overwrite) or a future
  // one (would leave a hole) is refused without touching the file.
  const std::string frame = before.substr(journal_header_bytes());
  EXPECT_EQ(j.value().append_raw(size - 1, frame).code(), StatusCode::kBadInput);
  EXPECT_EQ(j.value().append_raw(size + 1, frame).code(), StatusCode::kBadInput);
  EXPECT_EQ(slurp(path_), before);
}

TEST_F(JournalEpochTest, AppendRawRefusesDamagedFrames) {
  auto src = SweepJournal::open(path_ + ".src");
  ASSERT_TRUE(src.ok());
  ASSERT_TRUE(src.value().append(proven(60, 2.0)).ok());
  std::string frame = slurp(path_ + ".src").substr(journal_header_bytes());
  std::remove((path_ + ".src").c_str());

  auto j = SweepJournal::open(path_);
  ASSERT_TRUE(j.ok());
  const std::uint64_t size = j.value().size_bytes();
  const std::string before = slurp(path_);

  // Truncated tail: not a whole frame.
  EXPECT_EQ(j.value().append_raw(size, frame.substr(0, frame.size() / 2)).code(),
            StatusCode::kWireMalformed);
  // Flipped payload byte: CRC mismatch.
  std::string corrupt = frame;
  corrupt[corrupt.size() / 2] ^= 0x20;
  EXPECT_EQ(j.value().append_raw(size, corrupt).code(),
            StatusCode::kWireMalformed);
  // Hostile declared length: rejected by the frame parse, and the
  // refusal applied *nothing* - an all-or-nothing batch.
  EXPECT_EQ(j.value().append_raw(size, "R deadbeef 999999999999999\nx").code(),
            StatusCode::kWireMalformed);
  EXPECT_EQ(j.value().append_raw(size, frame + "R deadbeef 99\ntorn").code(),
            StatusCode::kWireMalformed);
  EXPECT_EQ(slurp(path_), before);
  EXPECT_EQ(j.value().entries().size(), 0u);
}

TEST_F(JournalEpochTest, CompactKeepsFirstCurrentRecordPerCap) {
  {
    auto j = SweepJournal::open(path_);
    ASSERT_TRUE(j.ok());
    ASSERT_TRUE(j.value().advance_epoch(1).ok());
    ASSERT_TRUE(j.value().advance_epoch(2).ok());  // superseded stamp collapses
    JournalRequest settled;
    settled.id = "settled";
    settled.kind = "bound";
    settled.caps = {60};
    ASSERT_TRUE(j.value().append_request(settled).ok());
    JournalRequest owing;
    owing.id = "owing";
    owing.kind = "sweep";
    owing.caps = {60, 95};  // 95 never solves: intent must survive
    ASSERT_TRUE(j.value().append_request(owing).ok());
    ASSERT_TRUE(j.value().append(proven(60, 2.0)).ok());
    ASSERT_TRUE(j.value().append(unproven(80)).ok());  // fails the re-check
    JournalEntry degraded;
    degraded.job_cap_watts = 50;
    degraded.verdict = StatusCode::kSolverNumerical;
    degraded.degraded = true;
    degraded.bound_seconds = 3.0;
    degraded.fallback = "static-policy";
    degraded.report_json = report_json("");
    ASSERT_TRUE(j.value().append(degraded).ok());  // no LP claim: always kept
  }
  const std::uint64_t before = slurp(path_).size();

  const CompactResult res = compact_journal(path_);
  ASSERT_TRUE(res.status.ok()) << res.status.to_string();
  EXPECT_TRUE(res.renamed);
  EXPECT_EQ(res.bytes_before, before);
  EXPECT_LT(res.bytes_after, res.bytes_before);
  EXPECT_EQ(res.records_kept, 2);     // proven 60 + degraded 50
  EXPECT_EQ(res.records_dropped, 1);  // unproven 80
  EXPECT_EQ(res.requests_kept, 1);    // "owing" still owes cap 95
  EXPECT_EQ(res.requests_dropped, 1);
  EXPECT_EQ(res.epoch, 2u);

  auto j = SweepJournal::open(path_);
  ASSERT_TRUE(j.ok());
  EXPECT_TRUE(j.value().recovery().clean());
  EXPECT_EQ(j.value().epoch(), 2u);
  EXPECT_TRUE(j.value().contains(60));
  EXPECT_TRUE(j.value().contains(50));
  EXPECT_FALSE(j.value().contains(80)) << "unproven record must re-solve";
  ASSERT_EQ(j.value().requests().size(), 1u);
  EXPECT_EQ(j.value().requests()[0].id, "owing");
}

TEST_F(JournalEpochTest, CompactCrashBeforeRenameLeavesOriginalIntact) {
  {
    auto j = SweepJournal::open(path_);
    ASSERT_TRUE(j.ok());
    ASSERT_TRUE(j.value().advance_epoch(1).ok());
    ASSERT_TRUE(j.value().append(proven(60, 2.0)).ok());
    ASSERT_TRUE(j.value().append(unproven(80)).ok());
  }
  const std::string before = slurp(path_);

  CompactOptions crash;
  crash.crash_before_rename = true;
  const CompactResult torn = compact_journal(path_, crash);
  ASSERT_TRUE(torn.status.ok()) << torn.status.to_string();
  EXPECT_FALSE(torn.renamed);
  EXPECT_EQ(slurp(path_), before) << "crash mid-compaction lost data";

  // The leftover tmp is inert: a rerun completes and the journal still
  // recovers cleanly.
  const CompactResult again = compact_journal(path_);
  ASSERT_TRUE(again.status.ok());
  EXPECT_TRUE(again.renamed);
  auto j = SweepJournal::open(path_);
  ASSERT_TRUE(j.ok());
  EXPECT_TRUE(j.value().recovery().clean());
  EXPECT_TRUE(j.value().contains(60));
  EXPECT_FALSE(j.value().contains(80));
}

// A stale record (an older build's report) followed by the current one
// that replaced it: recovery stands the current one, and compaction
// keeps exactly that record, so a reopened compacted journal serves the
// same bytes as before.
TEST_F(JournalEpochTest, CompactKeepsTheRecordRecoveryStands) {
  JournalEntry stale = proven(60, 1.0);
  stale.report_json = report_json(kPassedCertificate, /*schema=*/11);
  {
    auto j = SweepJournal::open(path_);
    ASSERT_TRUE(j.ok());
    ASSERT_TRUE(j.value().append(stale).ok());
    ASSERT_TRUE(j.value().append(proven(60, 2.0)).ok());
  }
  std::string stood;
  {
    auto j = SweepJournal::open(path_);
    ASSERT_TRUE(j.ok());
    const JournalEntry* e = j.value().find(60);
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(e->bound_seconds, 2.0);
    stood = e->report_json;
  }

  const CompactResult res = compact_journal(path_);
  ASSERT_TRUE(res.status.ok()) << res.status.to_string();
  EXPECT_EQ(res.records_kept, 1);
  EXPECT_EQ(res.records_dropped, 1);

  auto j = SweepJournal::open(path_);
  ASSERT_TRUE(j.ok());
  EXPECT_TRUE(j.value().recovery().clean());
  const JournalEntry* e = j.value().find(60);
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->bound_seconds, 2.0);
  EXPECT_EQ(e->report_json, stood);
}

TEST_F(JournalEpochTest, CompactRefusesMissingFile) {
  const CompactResult res = compact_journal(path_ + ".nonexistent");
  EXPECT_FALSE(res.status.ok());
}

}  // namespace
}  // namespace powerlim::robust
