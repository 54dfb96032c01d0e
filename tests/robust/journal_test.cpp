// SweepJournal crash-consistency matrix: round trips, torn tails, bit
// rot, foreign files, duplicates. Every corruption case must recover
// (truncate-and-continue or quarantine), never fail the open, and leave
// the journal appendable.
#include "robust/journal.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "journal_records.h"
#include "scratch_dir.h"
#include "util/posix_io.h"

namespace powerlim::robust {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  std::ostringstream os;
  os << f.rdbuf();
  return os.str();
}

void dump(const std::string& path, const std::string& bytes) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  f << bytes;
}

/// A `B` basis checkpoint frame as older builds appended them after each
/// row (one window per payload line, `-` for a window without a basis).
std::string legacy_basis_frame() {
  const std::string payload = "-\n4 2 2 0 2 0 0 2\n";
  char crc[16];
  std::snprintf(crc, sizeof crc, "%08x",
                static_cast<unsigned>(crc32(payload.data(), payload.size())));
  return std::string("B ") + crc + " " + std::to_string(payload.size()) +
         "\n" + payload + "\n";
}

JournalEntry entry(double cap, double bound) {
  JournalEntry e;
  e.job_cap_watts = cap;
  e.verdict = StatusCode::kOk;
  e.bound_seconds = bound;
  e.report_json = report_json("\"job_cap_watts\":" + std::to_string(cap) +
                              "," + kPassedCertificate);
  return e;
}

TEST(Crc32, KnownAnswer) {
  // The IEEE 802.3 check value for "123456789".
  EXPECT_EQ(crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(crc32("", 0), 0u);
}

TEST(SweepJournal, RoundTripsEntriesAndBasis) {
  const ScratchDir scratch("journal");
  ASSERT_TRUE(scratch.ok());
  const std::string path = scratch.path("journal_roundtrip");
  {
    auto j = SweepJournal::open(path);
    ASSERT_TRUE(j.ok()) << j.status().to_string();
    EXPECT_TRUE(j->recovery().clean());
    EXPECT_TRUE(j->entries().empty());

    JournalEntry degraded = entry(120.0, 9.5);
    degraded.verdict = StatusCode::kSolverNumerical;
    degraded.degraded = true;
    degraded.fallback = "static-policy";
    ASSERT_TRUE(j.value().append(entry(100.0, 12.25)).ok());
    ASSERT_TRUE(j.value().append(degraded).ok());
  }
  // A basis checkpoint an older build left behind is an intact frame
  // that nothing reads: it neither ends recovery nor gets truncated.
  dump(path, slurp(path) + legacy_basis_frame());
  const std::string written = slurp(path);

  auto j = SweepJournal::open(path);
  ASSERT_TRUE(j.ok()) << j.status().to_string();
  EXPECT_TRUE(j->recovery().clean());
  ASSERT_EQ(j->entries().size(), 2u);
  EXPECT_EQ(j->entries()[0].job_cap_watts, 100.0);
  EXPECT_EQ(j->entries()[0].verdict, StatusCode::kOk);
  EXPECT_EQ(j->entries()[0].bound_seconds, 12.25);
  EXPECT_FALSE(j->entries()[0].degraded);
  EXPECT_TRUE(j->entries()[0].fallback.empty());
  EXPECT_NE(j->entries()[0].report_json.find("job_cap_watts"),
            std::string::npos);
  EXPECT_EQ(j->entries()[1].verdict, StatusCode::kSolverNumerical);
  EXPECT_TRUE(j->entries()[1].degraded);
  EXPECT_EQ(j->entries()[1].fallback, "static-policy");
  EXPECT_TRUE(j->contains(100.0));
  EXPECT_TRUE(j->contains(120.0));
  EXPECT_FALSE(j->contains(110.0));
  EXPECT_EQ(slurp(path), written);
}

TEST(SweepJournal, CapsRoundTripBitExactly) {
  const ScratchDir scratch("journal");
  ASSERT_TRUE(scratch.ok());
  const std::string path = scratch.path("journal_bits");
  const double awkward = 100.0 / 3.0;  // not representable in short decimal
  {
    auto j = SweepJournal::open(path);
    ASSERT_TRUE(j.ok());
    ASSERT_TRUE(j.value().append(entry(awkward, 1.0)).ok());
  }
  auto j = SweepJournal::open(path);
  ASSERT_TRUE(j.ok());
  ASSERT_EQ(j->entries().size(), 1u);
  EXPECT_EQ(j->entries()[0].job_cap_watts, awkward);  // exact, not near
  EXPECT_TRUE(j->contains(awkward));
}

TEST(SweepJournal, TruncatedTailIsQuarantinedAndPrefixKept) {
  const ScratchDir scratch("journal");
  ASSERT_TRUE(scratch.ok());
  const std::string path = scratch.path("journal_torn");
  {
    auto j = SweepJournal::open(path);
    ASSERT_TRUE(j.ok());
    ASSERT_TRUE(j.value().append(entry(100.0, 12.0)).ok());
    ASSERT_TRUE(j.value().append(entry(110.0, 11.0)).ok());
  }
  const std::string full = slurp(path);
  // Chop mid-way through the second record: a classic torn write.
  dump(path, full.substr(0, full.size() - 20));

  auto j = SweepJournal::open(path);
  ASSERT_TRUE(j.ok()) << j.status().to_string();
  ASSERT_EQ(j->entries().size(), 1u);
  EXPECT_EQ(j->entries()[0].job_cap_watts, 100.0);
  EXPECT_GT(j->recovery().quarantined_bytes, 0);
  EXPECT_FALSE(j->recovery().quarantined_file);

  // The journal stays appendable after truncation, and the re-appended
  // cap survives the next recovery.
  ASSERT_TRUE(j.value().append(entry(110.0, 11.0)).ok());
  auto again = SweepJournal::open(path);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->entries().size(), 2u);
  EXPECT_TRUE(again->recovery().clean());
}

TEST(SweepJournal, BadCrcDropsTheDamagedSuffix) {
  const ScratchDir scratch("journal");
  ASSERT_TRUE(scratch.ok());
  const std::string path = scratch.path("journal_crc");
  {
    auto j = SweepJournal::open(path);
    ASSERT_TRUE(j.ok());
    ASSERT_TRUE(j.value().append(entry(100.0, 12.0)).ok());
    ASSERT_TRUE(j.value().append(entry(110.0, 11.0)).ok());
  }
  std::string bytes = slurp(path);
  // Flip one payload byte in the *last* record (keep length so only the
  // checksum can notice).
  bytes[bytes.size() - 3] ^= 0x01;
  dump(path, bytes);

  auto j = SweepJournal::open(path);
  ASSERT_TRUE(j.ok()) << j.status().to_string();
  ASSERT_EQ(j->entries().size(), 1u);
  EXPECT_EQ(j->entries()[0].job_cap_watts, 100.0);
  EXPECT_GT(j->recovery().quarantined_bytes, 0);
}

TEST(SweepJournal, CorruptionMidFileDropsEverythingAfterIt) {
  const ScratchDir scratch("journal");
  ASSERT_TRUE(scratch.ok());
  const std::string path = scratch.path("journal_midrot");
  {
    auto j = SweepJournal::open(path);
    ASSERT_TRUE(j.ok());
    ASSERT_TRUE(j.value().append(entry(100.0, 12.0)).ok());
    ASSERT_TRUE(j.value().append(entry(110.0, 11.0)).ok());
    ASSERT_TRUE(j.value().append(entry(120.0, 10.0)).ok());
  }
  std::string bytes = slurp(path);
  // Damage the middle record's payload; the intact third record must
  // NOT be trusted past the rot (order is history).
  bytes[bytes.size() / 2] ^= 0x40;
  dump(path, bytes);

  auto j = SweepJournal::open(path);
  ASSERT_TRUE(j.ok());
  ASSERT_EQ(j->entries().size(), 1u);
  EXPECT_EQ(j->entries()[0].job_cap_watts, 100.0);
  EXPECT_GT(j->recovery().quarantined_bytes, 0);
}

TEST(SweepJournal, WrongVersionQuarantinesTheFile) {
  const ScratchDir scratch("journal");
  ASSERT_TRUE(scratch.ok());
  const std::string path = scratch.path("journal_version");
  dump(path, "powerlim-journal v99\nR deadbeef 4\nabcd\n");

  auto j = SweepJournal::open(path);
  ASSERT_TRUE(j.ok()) << j.status().to_string();
  EXPECT_TRUE(j->entries().empty());
  EXPECT_TRUE(j->recovery().quarantined_file);
  EXPECT_EQ(j->recovery().quarantine_path, path + ".quarantined");
  // The foreign bytes survive in the quarantine file, untouched.
  EXPECT_NE(slurp(path + ".quarantined").find("v99"), std::string::npos);
  // And the fresh journal is fully usable.
  ASSERT_TRUE(j.value().append(entry(100.0, 12.0)).ok());
  auto again = SweepJournal::open(path);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->entries().size(), 1u);
}

TEST(SweepJournal, NonJournalFileQuarantines) {
  const ScratchDir scratch("journal");
  ASSERT_TRUE(scratch.ok());
  const std::string path = scratch.path("journal_foreign");
  dump(path, "{\"this\":\"is json, not a journal\"}");
  auto j = SweepJournal::open(path);
  ASSERT_TRUE(j.ok());
  EXPECT_TRUE(j->recovery().quarantined_file);
  EXPECT_TRUE(j->entries().empty());
}

TEST(SweepJournal, DuplicateCapKeepsFirstAndCounts) {
  const ScratchDir scratch("journal");
  ASSERT_TRUE(scratch.ok());
  const std::string path = scratch.path("journal_dup");
  {
    auto j = SweepJournal::open(path);
    ASSERT_TRUE(j.ok());
    ASSERT_TRUE(j.value().append(entry(100.0, 12.0)).ok());
    // In-memory dedup on append.
    ASSERT_TRUE(j.value().append(entry(100.0, 99.0)).ok());
    EXPECT_EQ(j->entries().size(), 1u);
    EXPECT_EQ(j->entries()[0].bound_seconds, 12.0);
    EXPECT_EQ(j->recovery().duplicates_dropped, 1);
  }
  // On-disk dedup on recovery: duplicate the record bytes wholesale (a
  // crash between solve-done and resume-check can legally do this).
  std::string bytes = slurp(path);
  const std::size_t header = bytes.find('\n') + 1;
  dump(path, bytes + bytes.substr(header));
  auto j = SweepJournal::open(path);
  ASSERT_TRUE(j.ok());
  EXPECT_EQ(j->entries().size(), 1u);
  EXPECT_EQ(j->entries()[0].bound_seconds, 12.0);
  EXPECT_EQ(j->recovery().duplicates_dropped, 1);
  EXPECT_EQ(j->recovery().quarantined_bytes, 0);
}

TEST(SweepJournal, UnwritablePathFailsOpen) {
  auto j = SweepJournal::open("/nonexistent-dir-xyz/journal");
  ASSERT_FALSE(j.ok());
  EXPECT_EQ(j.status().code(), StatusCode::kBadInput);
}

TEST(SweepJournal, RequestIntentsRoundTripAndRecover) {
  // The daemon journals a `Q` request intent before solving; a restart
  // must recover it (together with whatever `R` records made it to disk)
  // so unfinished caps can be re-enqueued.
  const ScratchDir scratch("journal");
  ASSERT_TRUE(scratch.ok());
  const std::string path = scratch.path("journal_requests");
  {
    auto j = SweepJournal::open(path);
    ASSERT_TRUE(j.ok()) << j.status().to_string();
    JournalRequest r;
    r.id = "req-7";
    r.kind = "sweep";
    r.deadline_ms = 1500.0;
    r.caps = {100.0, 100.0 / 3.0, 120.0};
    ASSERT_TRUE(j.value().append_request(r).ok());
    ASSERT_TRUE(j.value().append(entry(100.0, 12.0)).ok());
  }
  auto j = SweepJournal::open(path);
  ASSERT_TRUE(j.ok()) << j.status().to_string();
  EXPECT_TRUE(j->recovery().clean());
  EXPECT_EQ(j->recovery().request_records, 1);
  ASSERT_EQ(j->requests().size(), 1u);
  EXPECT_EQ(j->requests()[0].id, "req-7");
  EXPECT_EQ(j->requests()[0].kind, "sweep");
  EXPECT_EQ(j->requests()[0].deadline_ms, 1500.0);
  ASSERT_EQ(j->requests()[0].caps.size(), 3u);
  EXPECT_EQ(j->requests()[0].caps[1], 100.0 / 3.0);  // bit-exact
  ASSERT_EQ(j->entries().size(), 1u);

  // Malformed requests are refused before any bytes hit the file.
  JournalRequest bad;
  bad.id = "has space";
  bad.kind = "sweep";
  bad.caps = {1.0};
  EXPECT_EQ(j.value().append_request(bad).code(), StatusCode::kBadInput);
  JournalRequest capless;
  capless.id = "x";
  capless.kind = "bound";
  EXPECT_EQ(j.value().append_request(capless).code(),
            StatusCode::kBadInput);
}

TEST(JournalRequestSerialization, RejectsGarbage) {
  JournalRequest out;
  EXPECT_FALSE(parse_journal_request("", &out));
  EXPECT_FALSE(parse_journal_request("req=a kind=b deadline_ms=0", &out));
  EXPECT_FALSE(
      parse_journal_request("req=a kind=b deadline_ms=0 caps=", &out));
  EXPECT_FALSE(
      parse_journal_request("req=a kind=b deadline_ms=0 caps=1,", &out));
  EXPECT_FALSE(
      parse_journal_request("req=a kind=b deadline_ms=x caps=1", &out));
  EXPECT_FALSE(parse_journal_request(
      "req=a kind=b deadline_ms=0 caps=1 extra=1", &out));
  EXPECT_TRUE(parse_journal_request(
      "req=a kind=b deadline_ms=0 caps=1,2.5", &out));
  EXPECT_EQ(out.caps, (std::vector<double>{1.0, 2.5}));
}

TEST(SweepJournal, FreshCreateFsyncsTheParentDirectory) {
  // Creating the journal file makes a new directory entry; until the
  // directory itself is fsync'd, a power loss can lose the entry while
  // keeping the (fsync'd) data - an empty dir with the journal gone.
  // open() must therefore fsync the parent exactly when it *creates*,
  // observable via the process-wide dir-fsync counter.
  const ScratchDir scratch("journal");
  ASSERT_TRUE(scratch.ok());
  const std::string path = scratch.path("journal_dirfsync");

  const long before_create = util::fsync_parent_dir_count();
  {
    auto j = SweepJournal::open(path);
    ASSERT_TRUE(j.ok()) << j.status().to_string();
    ASSERT_TRUE(j.value().append(entry(100.0, 12.0)).ok());
  }
  EXPECT_EQ(util::fsync_parent_dir_count(), before_create + 1);

  // Re-opening an existing journal creates nothing: no dir fsync.
  const long before_reopen = util::fsync_parent_dir_count();
  {
    auto j = SweepJournal::open(path);
    ASSERT_TRUE(j.ok());
    EXPECT_EQ(j->entries().size(), 1u);
  }
  EXPECT_EQ(util::fsync_parent_dir_count(), before_reopen);
}

TEST(SweepJournal, QuarantineRotateFsyncsTheParentDirectory) {
  // The quarantine path rewrites *two* directory entries (rename the
  // foreign file aside + create a fresh journal); both must be durable
  // before recovery reports success.
  const ScratchDir scratch("journal");
  ASSERT_TRUE(scratch.ok());
  const std::string path = scratch.path("journal_dirfsync_rotate");
  dump(path, "powerlim-journal v99\nR deadbeef 4\nabcd\n");

  const long before = util::fsync_parent_dir_count();
  auto j = SweepJournal::open(path);
  ASSERT_TRUE(j.ok()) << j.status().to_string();
  EXPECT_TRUE(j->recovery().quarantined_file);
  EXPECT_EQ(util::fsync_parent_dir_count(), before + 1);
}

}  // namespace
}  // namespace powerlim::robust
