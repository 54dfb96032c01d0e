// Multi-process journal safety (the O_APPEND contract): two processes
// appending to one journal concurrently must interleave whole frames,
// never tear or clobber each other, and a cap both of them complete
// (the legal crash-window duplicate) must dedup to a single record.
// The merged journal, ordered by cap, must be byte-identical to one
// written serially.
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "journal_records.h"
#include "robust/journal.h"
#include "scratch_dir.h"

namespace powerlim::robust {
namespace {

JournalEntry entry_for(double cap) {
  JournalEntry e;
  e.job_cap_watts = cap;
  e.verdict = StatusCode::kOk;
  e.bound_seconds = cap * 1.5;
  e.report_json = report_json("\"job_cap_watts\":" + std::to_string(cap) +
                              "," + kPassedCertificate);
  return e;
}

/// Appends `caps` to the journal at `path` with small sleeps so two
/// appenders genuinely interleave at frame granularity.
void append_caps(const std::string& path, const std::vector<double>& caps) {
  Result<SweepJournal> j = SweepJournal::open(path);
  ASSERT_TRUE(j.ok()) << j.status().message();
  for (double cap : caps) {
    ASSERT_TRUE(j.value().append(entry_for(cap)).ok());
    ::usleep(1000);
  }
}

/// Every record's serialized payload, sorted by cap - completion order
/// differs across processes, so byte-identity is defined cap-wise.
std::vector<std::string> sorted_payloads(const std::string& path) {
  Result<SweepJournal> j = SweepJournal::open(path);
  EXPECT_TRUE(j.ok());
  std::vector<JournalEntry> entries = j->entries();
  std::sort(entries.begin(), entries.end(),
            [](const JournalEntry& a, const JournalEntry& b) {
              return a.job_cap_watts < b.job_cap_watts;
            });
  std::vector<std::string> out;
  out.reserve(entries.size());
  for (const JournalEntry& e : entries) {
    out.push_back(serialize_journal_entry(e));
  }
  return out;
}

TEST(ConcurrentJournal, TwoProcessAppendsMergeByteIdenticalToSerial) {
  const ScratchDir scratch("concurrent");
  ASSERT_TRUE(scratch.ok());
  const std::string serial = scratch.path("concurrent_serial.j");
  const std::string shared = scratch.path("concurrent_shared.j");

  const std::vector<double> odd = {110.0, 130.0, 150.0, 170.0};
  const std::vector<double> even = {120.0, 140.0, 160.0, 180.0};
  const double dup_cap = 200.0;  // completed by *both* processes

  // Serial reference: one process, all caps in order.
  {
    std::vector<double> all = odd;
    all.insert(all.end(), even.begin(), even.end());
    all.push_back(dup_cap);
    append_caps(serial, all);
  }

  // Concurrent run: two forked children share one journal file. The
  // parent creates it first (header write) - concurrency is an append
  // contract, not a creation contract.
  {
    Result<SweepJournal> init = SweepJournal::open(shared);
    ASSERT_TRUE(init.ok()) << init.status().message();
  }
  const auto spawn = [&](const std::vector<double>& caps) -> pid_t {
    const pid_t pid = fork();
    if (pid == 0) {
      std::vector<double> mine = caps;
      mine.push_back(dup_cap);
      append_caps(shared, mine);
      _exit(::testing::Test::HasFailure() ? 1 : 0);
    }
    return pid;
  };
  const pid_t a = spawn(odd);
  ASSERT_GE(a, 0);
  const pid_t b = spawn(even);
  ASSERT_GE(b, 0);
  int status = 0;
  ASSERT_EQ(waitpid(a, &status, 0), a);
  ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
  ASSERT_EQ(waitpid(b, &status, 0), b);
  ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);

  // Recovery must be clean: no torn frames, no quarantined bytes, and
  // exactly one record for the cap both processes completed. Appends
  // absorb frames other writers already landed (the epoch-fencing
  // read-before-write), so the crash-window duplicate is usually
  // suppressed before it hits the file; if both writers raced past the
  // check, recovery drops the second copy instead. Either way the
  // merged journal carries nine records.
  Result<SweepJournal> merged = SweepJournal::open(shared);
  ASSERT_TRUE(merged.ok());
  EXPECT_EQ(merged->recovery().records, 9);
  EXPECT_LE(merged->recovery().duplicates_dropped, 1);
  EXPECT_EQ(merged->recovery().quarantined_bytes, 0);
  EXPECT_FALSE(merged->recovery().quarantined_file);

  EXPECT_EQ(sorted_payloads(shared), sorted_payloads(serial));
}

TEST(ConcurrentJournal, AppendWhileAnotherHandleHoldsTheFile) {
  // Two handles in the *same* process (the in-flight-retry shape):
  // appends through either land as intact frames.
  const ScratchDir scratch("concurrent");
  ASSERT_TRUE(scratch.ok());
  const std::string path = scratch.path("concurrent_two_handles.j");

  Result<SweepJournal> first = SweepJournal::open(path);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(first.value().append(entry_for(50.0)).ok());

  Result<SweepJournal> second = SweepJournal::open(path);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->recovery().records, 1);
  ASSERT_TRUE(second.value().append(entry_for(60.0)).ok());
  ASSERT_TRUE(first.value().append(entry_for(70.0)).ok());

  Result<SweepJournal> check = SweepJournal::open(path);
  ASSERT_TRUE(check.ok());
  EXPECT_EQ(check->recovery().records, 3);
  EXPECT_EQ(check->recovery().quarantined_bytes, 0);
  EXPECT_TRUE(check->contains(50.0));
  EXPECT_TRUE(check->contains(60.0));
  EXPECT_TRUE(check->contains(70.0));
}

}  // namespace
}  // namespace powerlim::robust
