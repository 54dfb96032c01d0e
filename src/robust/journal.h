// Crash-consistent sweep journal: the durable half of the supervision
// layer (tentpole of the robustness work, part 2).
//
// A journaled sweep appends one framed record per *completed* cap, so a
// run killed mid-sweep can restart with `--resume` and skip straight to
// the first unsolved cap, merging journaled rows with fresh ones into a
// result identical to an uninterrupted run (modulo timing fields).
//
// File format (`powerlim-journal v1`, line-oriented, self-describing):
//
//   powerlim-journal v1\n
//   R <crc32-hex> <payload-bytes>\n<payload>\n        (one per cap)
//   Q <crc32-hex> <payload-bytes>\n<payload>\n        (request intent)
//   E <crc32-hex> <payload-bytes>\n<payload>\n        (epoch stamp)
//
// An `R` payload is a structured row line (cap / verdict / degraded /
// bound / fallback - everything the sweep table needs) followed by the
// full RunReport JSON. A `Q` payload records a *request intent* (the
// powerlimd daemon journals every admitted request before its first
// solve starts), so a daemon killed mid-request can resume: caps from
// recovered `Q` records that lack a standing `R` record are exactly the
// work still owed. An `E` payload (`epoch=<n>`) is a failover-epoch
// stamp: the high-availability layer appends one whenever a daemon opens
// the journal under a newer epoch than the journal has seen, and
// recovery reports the highest intact stamp via `epoch()`. A writer
// that `pin_epoch()`s itself is *fenced*: every later append re-checks
// the file for foreign appends first and refuses with kStaleEpoch once
// any writer has stamped a higher epoch - a deposed primary cannot
// scribble over a promoted standby's history.
//
// Older builds also wrote `B` frames (same framing): per-window simplex
// basis checkpoints for warm-starting a resumed sweep. Nothing writes
// them any more, since every cap solves cold, but a journal that holds
// them still opens: recovery, replication and compaction accept an
// intact `B` frame as a frame and ignore its payload (compaction drops
// it), so it is never mistaken for corruption.
//
// Trust: the first *current* `R` record of a cap stands for it. A record
// is current when its RunReport carries this build's schema
// (kRunReportSchemaVersion) and, when its verdict is `ok`, a passed
// exact certificate (`"certificate":{"checked":true,"ok":true`). The
// rule lives here and nowhere else: recovery, append, replication
// apply, foreign-append absorption and compaction all stand the same
// records, so a resumed sweep, powerlimd and `journal compact` cannot
// disagree about a cap. A record that is not current (an older build's
// report, a tampered or unproven bound) is skipped and counted in
// `RecoverySummary::stale_records`; its bytes stay in the file, so
// replication offsets do not move, and a fresh record appended after it
// stands in its place - the cap re-solves once, not on every resume.
//
// Durability and recovery:
//   * every append is a single write() of the whole frame (on an
//     O_APPEND fd, so concurrent appenders - e.g. two sweep processes
//     sharing one journal - never clobber each other's offsets)
//     followed by fsync() - a record is either fully durable or torn,
//     never half-trusted;
//   * a torn / CRC-corrupt / malformed tail is *quarantined by
//     truncation*: recovery keeps every intact prefix record, truncates
//     the file back to the last good frame boundary, and reports the
//     dropped bytes (truncate-and-continue - crash on crash is fine);
//   * corruption sandwiched before intact frames also truncates there:
//     trusting records past a corrupt region would re-order history;
//   * a version/magic mismatch renames the file to `<path>.quarantined`
//     and starts a fresh journal (never silently reinterpret another
//     format);
//   * duplicate caps keep the first current record and count the drops
//     (a crash between "solve finished" and "resume check" can legally
//     duplicate the in-flight cap).
//
// No dependencies: CRC-32 (IEEE, table-driven) and the framing live
// here; IO is plain POSIX.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "robust/status.h"

namespace powerlim::robust {

/// CRC-32 (IEEE 802.3, reflected, init/final 0xFFFFFFFF) - the frame
/// checksum. Exposed for the corrupt-journal tests.
std::uint32_t crc32(const void* data, std::size_t len);

/// Size of the magic header line every journal file starts with
/// ("powerlim-journal v1\n"). A journal of exactly this size holds zero
/// records; the replication layer uses that to recognize a
/// freshly-reset replica without trusting the peer.
std::size_t journal_header_bytes();

/// One recovered (or appended) per-cap record.
struct JournalEntry {
  double job_cap_watts = 0.0;
  StatusCode verdict = StatusCode::kInternal;
  bool degraded = false;
  /// LP bound / degraded fallback time; < 0 when no bound survived.
  double bound_seconds = -1.0;
  /// Fallback name when degraded ("static-policy"), else empty.
  std::string fallback;
  /// Full RunReport JSON for the cap (artifact parity with a fresh run).
  std::string report_json;
};

/// One durable request intent (`Q` record): what a daemon promised to
/// solve before it started solving. Ids and kinds are single tokens
/// (no whitespace - the serialization is token-framed).
struct JournalRequest {
  std::string id;
  /// "bound" (one cap) or "sweep" (many).
  std::string kind;
  /// Client deadline echoed at admission, ms (0 = none).
  double deadline_ms = 0.0;
  std::vector<double> caps;
};

/// What recovery found when the journal was opened.
struct RecoverySummary {
  /// Records standing for their caps (the first current one per cap).
  int records = 0;
  /// Intact request-intent records recovered.
  int request_records = 0;
  /// Intact epoch stamps seen (only the highest value matters).
  int epoch_records = 0;
  /// Current records for a cap that already has a standing one.
  int duplicates_dropped = 0;
  /// Intact records that are not current (older report schema, or an
  /// `ok` verdict without a passed certificate): skipped, never stand.
  int stale_records = 0;
  /// Bytes of torn/corrupt tail removed by truncate-and-continue.
  long quarantined_bytes = 0;
  /// True when a version/magic mismatch moved the old file aside.
  bool quarantined_file = false;
  /// Where the mismatched file went (empty unless quarantined_file).
  std::string quarantine_path;

  bool clean() const {
    return quarantined_bytes == 0 && !quarantined_file &&
           duplicates_dropped == 0 && stale_records == 0;
  }
};

/// Serialize / parse one per-cap record payload (the `R` frame body).
/// Shared with the worker-pool wire protocol: a worker ships its result
/// to the supervisor in exactly the bytes the journal would append, so
/// a journaled parallel sweep stores what a serial sweep would have.
std::string serialize_journal_entry(const JournalEntry& entry);
bool parse_journal_entry(const std::string& payload, JournalEntry* out);

/// Serialize / parse one request-intent payload (the `Q` frame body):
/// `req=<id> kind=<kind> deadline_ms=<g17> caps=<c1,c2,...>`. Ids and
/// kinds containing whitespace are rejected on serialize (empty result)
/// and parse alike.
std::string serialize_journal_request(const JournalRequest& request);
bool parse_journal_request(const std::string& payload, JournalRequest* out);

class SweepJournal {
 public:
  /// Opens (creating if absent) and recovers a journal. Fails only on
  /// real IO errors (unwritable path); corruption never fails an open -
  /// it is truncated or quarantined and reported in `recovery()`.
  [[nodiscard]] static Result<SweepJournal> open(const std::string& path);

  SweepJournal(SweepJournal&&) noexcept;
  SweepJournal& operator=(SweepJournal&&) noexcept;
  ~SweepJournal();

  const std::string& path() const;
  const RecoverySummary& recovery() const;

  /// Standing per-cap records, in journal (= completion) order.
  const std::vector<JournalEntry>& entries() const;
  /// Whether a cap has a standing record. Caps are matched exactly:
  /// records round-trip through max-precision decimal, which is
  /// bit-faithful for doubles.
  bool contains(double job_cap_watts) const;
  /// The cap's standing record, or nullptr: the record a resumed sweep
  /// or powerlimd may serve instead of solving the cap.
  const JournalEntry* find(double job_cap_watts) const;

  /// Recovered request intents, in journal (= admission) order.
  const std::vector<JournalRequest>& requests() const;

  /// Highest intact epoch stamp recovered or absorbed (0 = none: a
  /// journal that has never been touched by the failover layer).
  std::uint64_t epoch() const;

  /// Durably appends an `E` epoch stamp. Idempotent when the journal
  /// already carries `epoch` (no write); refuses with kStaleEpoch when
  /// the journal has seen a *higher* epoch (epochs never regress).
  [[nodiscard]] Status advance_epoch(std::uint64_t epoch);

  /// Fences this handle at `epoch`: every later append first absorbs
  /// any foreign appends from the file and fails with kStaleEpoch if a
  /// higher epoch stamp has landed. A deposed primary sharing the file
  /// with a promoted standby loses the race durably, not silently.
  void pin_epoch(std::uint64_t epoch);

  /// Current durable size in bytes (absorbing foreign appends first).
  /// Replication high-water marks are exactly these byte offsets.
  std::uint64_t size_bytes();

  /// Observer invoked after every durable append through this handle
  /// (the replication hub uses it to wake the streamer; the callback
  /// must not reenter the journal).
  void set_append_listener(std::function<void()> listener);

  /// Replication apply path: verifies `bytes` is a whole number of
  /// intact frames, that `offset` matches the current durable size, and
  /// appends the bytes verbatim (same write+fsync discipline), updating
  /// recovered state. kBadInput on offset mismatch (caller resyncs),
  /// kWireMalformed on framing/CRC damage - nothing is applied then.
  [[nodiscard]] Status append_raw(std::uint64_t offset, const std::string& bytes);

  /// Durably appends one per-cap record (write + fsync before return).
  /// An entry for a cap that already has a standing record is dropped
  /// as a duplicate. An entry that is not current is written but never
  /// stands (it counts in `stale_records`, as it would on recovery).
  [[nodiscard]] Status append(const JournalEntry& entry);
  /// Durably appends a request intent *before* any of its caps solve.
  /// Malformed requests (whitespace in id/kind) are kBadInput.
  [[nodiscard]] Status append_request(const JournalRequest& request);

 private:
  SweepJournal();
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Options for `compact_journal`.
struct CompactOptions {
  /// Test hook: stop after the rewritten journal is written and fsynced
  /// but *before* the atomic rename, simulating a crash mid-compaction.
  bool crash_before_rename = false;
};

/// What compaction did (or why it failed).
struct CompactResult {
  Status status;
  /// False when crash_before_rename stopped the rewrite (the original
  /// journal is untouched and the `.compact.tmp` leftover is inert).
  bool renamed = false;
  std::uint64_t bytes_before = 0;
  std::uint64_t bytes_after = 0;
  /// Highest epoch stamp carried over (0 = none).
  std::uint64_t epoch = 0;
  /// Caps kept (the record that stands for each cap).
  int records_kept = 0;
  /// R frames dropped: records that are not current plus duplicates.
  int records_dropped = 0;
  /// Request intents kept (still owe at least one cap) / dropped.
  int requests_kept = 0;
  int requests_dropped = 0;
  /// Legacy `B` basis checkpoints dropped (all of them).
  int basis_dropped = 0;
  /// Superseded epoch stamps collapsed away.
  int epoch_records_dropped = 0;
};

/// Rewrites `path` keeping exactly the records recovery stands (the
/// first current record per cap), request intents that still owe work,
/// and a single epoch stamp; stale records and legacy `B` frames go.
/// Crash-safe: the replacement is written to `<path>.compact.tmp`,
/// fsynced, renamed over the original, and the directory fsynced - a
/// crash at any point leaves either the old or the new journal intact.
/// Offline only: compacting a journal another process is appending to
/// (or replicating from) would invalidate its byte offsets.
CompactResult compact_journal(const std::string& path,
                              const CompactOptions& options = {});

}  // namespace powerlim::robust
