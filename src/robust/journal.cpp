#include "robust/journal.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>

#include "robust/solve_driver.h"  // kRunReportSchemaVersion
#include "util/posix_io.h"

namespace powerlim::robust {

namespace {

constexpr char kMagic[] = "powerlim-journal v1";

std::string errno_message(const char* what, const std::string& path) {
  std::string msg = what;
  msg += " '";
  msg += path;
  msg += "': ";
  msg += std::strerror(errno);
  return msg;
}

/// Max-precision decimal: round-trips every finite double bit-exactly.
std::string format_double(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string crc_hex(std::uint32_t crc) {
  char buf[16];
  std::snprintf(buf, sizeof buf, "%08" PRIx32, crc);
  return buf;
}

/// Full append frame for one record.
std::string frame(char tag, const std::string& payload) {
  std::string out;
  out.reserve(payload.size() + 32);
  out += tag;
  out += ' ';
  out += crc_hex(crc32(payload.data(), payload.size()));
  out += ' ';
  out += std::to_string(payload.size());
  out += '\n';
  out += payload;
  out += '\n';
  return out;
}

std::string serialize_epoch(std::uint64_t epoch) {
  return "epoch=" + std::to_string(epoch);
}

bool parse_epoch(const std::string& payload, std::uint64_t* out) {
  constexpr char kPrefix[] = "epoch=";
  constexpr std::size_t kPrefixLen = sizeof(kPrefix) - 1;
  if (payload.compare(0, kPrefixLen, kPrefix) != 0 ||
      payload.size() <= kPrefixLen) {
    return false;
  }
  char* end = nullptr;
  errno = 0;
  const unsigned long long v =
      std::strtoull(payload.c_str() + kPrefixLen, &end, 10);
  if (errno != 0 || end == payload.c_str() + kPrefixLen || *end != '\0') {
    return false;
  }
  *out = v;
  return true;
}

/// Walks framed records in `data` starting at `start`, invoking
/// `on_frame` for each intact one (known tag, 8-hex CRC that matches,
/// newline terminator in place). Returns the offset just past the last
/// accepted frame; damage - or `on_frame` returning false - stops the
/// walk there. Shared by recovery, foreign-append absorption, the
/// replication apply path, and compaction so all four agree byte-for-
/// byte on what an intact frame is.
std::size_t scan_frames(
    const std::string& data, std::size_t start,
    const std::function<bool(char, const std::string&)>& on_frame) {
  std::size_t good = start;
  std::size_t pos = start;
  while (pos < data.size()) {
    const std::size_t line_end = data.find('\n', pos);
    if (line_end == std::string::npos) break;  // torn frame header
    const std::string line = data.substr(pos, line_end - pos);
    char tag = 0;
    char crc_text[16] = {0};
    unsigned long long len = 0;
    // 'B' (a legacy basis checkpoint) is a known tag that nothing applies.
    if (std::sscanf(line.c_str(), "%c %15s %llu", &tag, crc_text, &len) !=
            3 ||
        (tag != 'R' && tag != 'B' && tag != 'Q' && tag != 'E') ||
        std::strlen(crc_text) != 8) {
      break;
    }
    const std::size_t payload_start = line_end + 1;
    if (len > data.size() - payload_start) break;  // torn payload
    const std::size_t payload_end =
        payload_start + static_cast<std::size_t>(len);
    if (payload_end >= data.size() || data[payload_end] != '\n') break;
    const std::string payload = data.substr(payload_start, len);
    char* end = nullptr;
    const std::uint32_t want =
        static_cast<std::uint32_t>(std::strtoul(crc_text, &end, 16));
    if (end == crc_text || *end != '\0' ||
        crc32(payload.data(), payload.size()) != want) {
      break;  // bit rot / torn write inside the payload
    }
    if (!on_frame(tag, payload)) break;
    pos = payload_end + 1;
    good = pos;
  }
  return good;
}

/// The trust rule (see journal.h): a record is current when its report
/// opens with this build's schema and, if it claims an LP bound (kOk),
/// carries a passed exact certificate. RunReport::to_json emits keys in
/// a fixed order, so both tests are exact substrings. The certificate
/// verdict sits in `result`; the `telemetry` certificate block holds
/// only the duality gap, and a quote inside a string value is escaped,
/// so nothing else can match.
bool current_record(const JournalEntry& entry) {
  static const std::string kSchema =
      "{\"schema_version\":" + std::to_string(kRunReportSchemaVersion) + ",";
  const std::string& json = entry.report_json;
  if (json.compare(0, kSchema.size(), kSchema) != 0) return false;
  return entry.verdict != StatusCode::kOk ||
         json.find("\"certificate\":{\"checked\":true,\"ok\":true") !=
             std::string::npos;
}

const JournalEntry* find_cap(const std::vector<JournalEntry>& entries,
                             double job_cap_watts) {
  for (const JournalEntry& e : entries) {
    if (e.job_cap_watts == job_cap_watts) return &e;
  }
  return nullptr;
}

}  // namespace

std::string serialize_journal_entry(const JournalEntry& e) {
  std::string out = "cap=";
  out += format_double(e.job_cap_watts);
  out += " verdict=";
  out += to_string(e.verdict);
  out += " degraded=";
  out += e.degraded ? '1' : '0';
  out += " bound=";
  out += format_double(e.bound_seconds);
  out += " fallback=";
  out += e.fallback.empty() ? "-" : e.fallback;
  out += '\n';
  out += e.report_json;
  return out;
}

namespace {

bool take_field(std::istringstream& is, const char* key, std::string* value) {
  std::string tok;
  if (!(is >> tok)) return false;
  const std::size_t klen = std::strlen(key);
  if (tok.compare(0, klen, key) != 0 || tok.size() <= klen ||
      tok[klen] != '=') {
    return false;
  }
  *value = tok.substr(klen + 1);
  return true;
}

}  // namespace

namespace {

bool single_token(const std::string& s) {
  if (s.empty()) return false;
  for (char c : s) {
    if (c == ' ' || c == '\t' || c == '\n' || c == '\r') return false;
  }
  return true;
}

}  // namespace

std::string serialize_journal_request(const JournalRequest& r) {
  if (!single_token(r.id) || !single_token(r.kind) || r.caps.empty()) {
    return std::string();
  }
  std::string out = "req=";
  out += r.id;
  out += " kind=";
  out += r.kind;
  out += " deadline_ms=";
  out += format_double(r.deadline_ms);
  out += " caps=";
  for (std::size_t i = 0; i < r.caps.size(); ++i) {
    if (i) out += ',';
    out += format_double(r.caps[i]);
  }
  return out;
}

bool parse_journal_request(const std::string& payload, JournalRequest* out) {
  std::istringstream is(payload);
  std::string id, kind, deadline, caps;
  if (!take_field(is, "req", &id) || !take_field(is, "kind", &kind) ||
      !take_field(is, "deadline_ms", &deadline) ||
      !take_field(is, "caps", &caps)) {
    return false;
  }
  std::string extra;
  if (is >> extra) return false;
  JournalRequest r;
  r.id = id;
  r.kind = kind;
  char* end = nullptr;
  r.deadline_ms = std::strtod(deadline.c_str(), &end);
  if (end == deadline.c_str() || *end != '\0') return false;
  std::size_t pos = 0;
  while (pos <= caps.size()) {
    std::size_t comma = caps.find(',', pos);
    if (comma == std::string::npos) comma = caps.size();
    const std::string tok = caps.substr(pos, comma - pos);
    const double cap = std::strtod(tok.c_str(), &end);
    if (tok.empty() || end == tok.c_str() || *end != '\0') return false;
    r.caps.push_back(cap);
    pos = comma + 1;
  }
  if (r.caps.empty()) return false;
  *out = std::move(r);
  return true;
}

bool parse_journal_entry(const std::string& payload, JournalEntry* out) {
  const std::size_t nl = payload.find('\n');
  if (nl == std::string::npos) return false;
  std::istringstream head(payload.substr(0, nl));
  std::string cap, verdict, degraded, bound, fallback;
  if (!take_field(head, "cap", &cap) ||
      !take_field(head, "verdict", &verdict) ||
      !take_field(head, "degraded", &degraded) ||
      !take_field(head, "bound", &bound) ||
      !take_field(head, "fallback", &fallback)) {
    return false;
  }
  JournalEntry e;
  char* end = nullptr;
  e.job_cap_watts = std::strtod(cap.c_str(), &end);
  if (end == cap.c_str() || *end != '\0') return false;
  if (!status_code_from_string(verdict, &e.verdict)) return false;
  if (degraded != "0" && degraded != "1") return false;
  e.degraded = degraded == "1";
  e.bound_seconds = std::strtod(bound.c_str(), &end);
  if (end == bound.c_str() || *end != '\0') return false;
  e.fallback = fallback == "-" ? std::string() : fallback;
  e.report_json = payload.substr(nl + 1);
  *out = std::move(e);
  return true;
}

std::size_t journal_header_bytes() {
  return sizeof(kMagic) - 1 + 1;  // magic line + its newline
}

std::uint32_t crc32(const void* data, std::size_t len) {
  static const auto table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  std::uint32_t crc = 0xFFFFFFFFu;
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < len; ++i) {
    crc = table[(crc ^ p[i]) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

struct SweepJournal::Impl {
  std::string path;
  int fd = -1;
  RecoverySummary recovery;
  std::vector<JournalEntry> entries;
  std::vector<JournalRequest> requests;
  std::uint64_t epoch = 0;
  bool pinned = false;
  std::uint64_t pinned_epoch = 0;
  /// Offset just past the last frame this handle has absorbed; always a
  /// frame boundary of the bytes it has seen.
  std::uint64_t durable_size = 0;
  std::function<void()> listener;

  ~Impl() {
    if (fd >= 0) ::close(fd);
  }

  /// Stands `e` for its cap under the trust rule: the first current
  /// record of a cap stands; a stale one or a later duplicate is counted
  /// and skipped.
  void absorb_entry(JournalEntry e) {
    if (!current_record(e)) {
      ++recovery.stale_records;
    } else if (find_cap(entries, e.job_cap_watts) != nullptr) {
      ++recovery.duplicates_dropped;
    } else {
      entries.push_back(std::move(e));
      ++recovery.records;
    }
  }

  /// Parses one intact frame's payload and (when `apply`) folds it into
  /// the recovered state. Returns false on an unparseable payload. A
  /// legacy `B` frame carries nothing this build reads and is skipped.
  bool absorb_frame(char tag, const std::string& payload, bool apply) {
    if (tag == 'R') {
      JournalEntry e;
      if (!parse_journal_entry(payload, &e)) return false;
      if (apply) absorb_entry(std::move(e));
    } else if (tag == 'Q') {
      JournalRequest r;
      if (!parse_journal_request(payload, &r)) return false;
      if (!apply) return true;
      requests.push_back(std::move(r));
      ++recovery.request_records;
    } else if (tag == 'E') {
      std::uint64_t e = 0;
      if (!parse_epoch(payload, &e)) return false;
      if (!apply) return true;
      if (e > epoch) epoch = e;
      ++recovery.epoch_records;
    }
    return true;
  }

  /// Catches this handle up with frames other writers appended to the
  /// file (O_APPEND keeps them whole). Only complete intact frames are
  /// absorbed: a writer caught mid-write leaves a partial tail that the
  /// next absorption re-reads once it is complete. This is how a fenced
  /// writer learns about a foreign epoch stamp before it writes.
  Status absorb_external() {
    struct stat st {};
    if (::fstat(fd, &st) != 0) {
      return Status(StatusCode::kInternal,
                    errno_message("cannot stat journal", path));
    }
    const auto size = static_cast<std::uint64_t>(st.st_size);
    if (size <= durable_size) return Status::Ok();
    std::string delta;
    delta.resize(static_cast<std::size_t>(size - durable_size));
    std::size_t got = 0;
    while (got < delta.size()) {
      const ssize_t n =
          ::pread(fd, &delta[got], delta.size() - got,
                  static_cast<off_t>(durable_size + got));
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) break;
      got += static_cast<std::size_t>(n);
    }
    delta.resize(got);
    const std::size_t good =
        scan_frames(delta, 0, [this](char tag, const std::string& payload) {
          return absorb_frame(tag, payload, true);
        });
    durable_size += good;
    return Status::Ok();
  }

  /// Pre-append gate: absorb foreign appends, then enforce the epoch
  /// fence. A pinned writer refuses to append once any writer has
  /// stamped a higher epoch.
  Status prepare_append() {
    Status st = absorb_external();
    if (!st.ok()) return st;
    if (pinned && epoch > pinned_epoch) {
      return Status(StatusCode::kStaleEpoch,
                    "journal '" + path + "' carries epoch " +
                        std::to_string(epoch) +
                        " but this writer is fenced at epoch " +
                        std::to_string(pinned_epoch));
    }
    return Status::Ok();
  }

  Status write_durable(const std::string& bytes) {
    // One EINTR-retried write of the whole frame (the fd is O_APPEND, so
    // concurrent appenders from other processes cannot interleave with
    // or clobber it), then a retried fsync for durability.
    const std::uint64_t before = durable_size;
    if (util::write_full(fd, bytes.data(), bytes.size()) != 0) {
      return Status(StatusCode::kInternal,
                    errno_message("journal write failed", path));
    }
    if (util::fsync_full(fd) != 0) {
      return Status(StatusCode::kInternal,
                    errno_message("journal fsync failed", path));
    }
    struct stat st {};
    if (::fstat(fd, &st) == 0 &&
        static_cast<std::uint64_t>(st.st_size) == before + bytes.size()) {
      // Common case: nothing interleaved, so the new end of file is a
      // frame boundary this handle has fully absorbed.
      durable_size = before + bytes.size();
    }
    // Otherwise a concurrent appender interleaved ahead of this write.
    // Keep the old boundary: the next absorption re-scans from it, picks
    // up the foreign frames, and re-sees this write as a duplicate
    // (duplicate caps dedup; epoch stamps are max-merged).
    if (listener) listener();
    return Status::Ok();
  }
};

SweepJournal::SweepJournal() : impl_(std::make_unique<Impl>()) {}
SweepJournal::~SweepJournal() = default;
SweepJournal::SweepJournal(SweepJournal&&) noexcept = default;
SweepJournal& SweepJournal::operator=(SweepJournal&&) noexcept = default;

const std::string& SweepJournal::path() const { return impl_->path; }
const RecoverySummary& SweepJournal::recovery() const {
  return impl_->recovery;
}
const std::vector<JournalEntry>& SweepJournal::entries() const {
  return impl_->entries;
}
const std::vector<JournalRequest>& SweepJournal::requests() const {
  return impl_->requests;
}

bool SweepJournal::contains(double job_cap_watts) const {
  return find(job_cap_watts) != nullptr;
}

const JournalEntry* SweepJournal::find(double job_cap_watts) const {
  return find_cap(impl_->entries, job_cap_watts);
}

Result<SweepJournal> SweepJournal::open(const std::string& path) {
  SweepJournal journal;
  Impl& im = *journal.impl_;
  im.path = path;
  const bool existed = ::access(path.c_str(), F_OK) == 0;
  im.fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_APPEND | O_CLOEXEC,
                 0644);
  if (im.fd < 0) {
    return Status(StatusCode::kBadInput,
                  errno_message("cannot open journal", path));
  }
  // A freshly created journal is only durable once the directory entry
  // pointing at it is too: fsync the parent directory, or a power loss
  // after the first record's fsync can still lose the whole file.
  if (!existed && util::fsync_parent_dir(path) != 0) {
    return Status(StatusCode::kInternal,
                  errno_message("cannot fsync journal directory", path));
  }

  // Slurp the whole file; sweep journals are tens of KB.
  std::string data;
  {
    char buf[1 << 16];
    for (;;) {
      const ssize_t n = util::read_some(im.fd, buf, sizeof buf);
      if (n < 0) {
        return Status(StatusCode::kInternal,
                      errno_message("cannot read journal", path));
      }
      if (n == 0) break;
      data.append(buf, static_cast<std::size_t>(n));
    }
  }

  if (data.empty()) {
    std::string header = kMagic;
    header += '\n';
    Status st = im.write_durable(header);
    if (!st.ok()) return st;
    return journal;
  }

  // Version / magic check. A mismatch is another tool's (or a future
  // version's) file: move it aside rather than guess at its framing.
  const std::size_t header_end = data.find('\n');
  if (header_end == std::string::npos ||
      data.compare(0, header_end, kMagic) != 0) {
    const std::string moved = path + ".quarantined";
    ::close(im.fd);
    im.fd = -1;
    if (::rename(path.c_str(), moved.c_str()) != 0) {
      return Status(StatusCode::kInternal,
                    errno_message("cannot quarantine journal", path));
    }
    im.fd = ::open(path.c_str(),
                   O_RDWR | O_CREAT | O_EXCL | O_APPEND | O_CLOEXEC, 0644);
    if (im.fd < 0) {
      return Status(StatusCode::kInternal,
                    errno_message("cannot recreate journal", path));
    }
    // The rotate (rename + recreate) rewrote two directory entries; make
    // both durable before trusting the fresh journal.
    if (util::fsync_parent_dir(path) != 0) {
      return Status(StatusCode::kInternal,
                    errno_message("cannot fsync journal directory", path));
    }
    im.recovery.quarantined_file = true;
    im.recovery.quarantine_path = moved;
    std::string header = kMagic;
    header += '\n';
    Status st = im.write_durable(header);
    if (!st.ok()) return st;
    return journal;
  }

  // Frame-by-frame recovery. `good` tracks the offset just past the
  // last fully-verified frame; anything beyond it at the first sign of
  // damage is a torn tail and gets truncated away.
  const std::size_t good =
      scan_frames(data, header_end + 1,
                  [&im](char tag, const std::string& payload) {
                    return im.absorb_frame(tag, payload, true);
                  });
  im.durable_size = good;

  if (good < data.size()) {
    im.recovery.quarantined_bytes = static_cast<long>(data.size() - good);
    if (::ftruncate(im.fd, static_cast<off_t>(good)) != 0) {
      return Status(StatusCode::kInternal,
                    errno_message("cannot truncate torn journal", path));
    }
  }
  if (::lseek(im.fd, 0, SEEK_END) < 0) {
    return Status(StatusCode::kInternal,
                  errno_message("cannot seek journal", path));
  }
  return journal;
}

Status SweepJournal::append(const JournalEntry& entry) {
  Status st = impl_->prepare_append();
  if (!st.ok()) return st;
  if (contains(entry.job_cap_watts)) {
    ++impl_->recovery.duplicates_dropped;
    return Status::Ok();
  }
  st = impl_->write_durable(frame('R', serialize_journal_entry(entry)));
  if (!st.ok()) return st;
  impl_->absorb_entry(entry);
  return Status::Ok();
}

Status SweepJournal::append_request(const JournalRequest& request) {
  const std::string payload = serialize_journal_request(request);
  if (payload.empty()) {
    return Status(StatusCode::kBadInput,
                  "journal request needs a whitespace-free id/kind and at "
                  "least one cap");
  }
  Status st = impl_->prepare_append();
  if (!st.ok()) return st;
  st = impl_->write_durable(frame('Q', payload));
  if (!st.ok()) return st;
  impl_->requests.push_back(request);
  ++impl_->recovery.request_records;
  return Status::Ok();
}

std::uint64_t SweepJournal::epoch() const { return impl_->epoch; }

Status SweepJournal::advance_epoch(std::uint64_t epoch) {
  Impl& im = *impl_;
  Status st = im.absorb_external();
  if (!st.ok()) return st;
  if (epoch < im.epoch) {
    return Status(StatusCode::kStaleEpoch,
                  "journal '" + im.path + "' already carries epoch " +
                      std::to_string(im.epoch) + "; refusing to regress to " +
                      std::to_string(epoch));
  }
  if (epoch == im.epoch) return Status::Ok();
  st = im.write_durable(frame('E', serialize_epoch(epoch)));
  if (!st.ok()) return st;
  im.epoch = epoch;
  ++im.recovery.epoch_records;
  return Status::Ok();
}

void SweepJournal::pin_epoch(std::uint64_t epoch) {
  impl_->pinned = true;
  impl_->pinned_epoch = epoch;
}

std::uint64_t SweepJournal::size_bytes() {
  // A failed refresh (fstat error on the journal fd) leaves durable_size
  // at its last known-good value, which is the right answer for a size
  // query: callers use it as a replication watermark, never as proof of
  // durability.
  (void)impl_->absorb_external();
  return impl_->durable_size;
}

void SweepJournal::set_append_listener(std::function<void()> listener) {
  impl_->listener = std::move(listener);
}

Status SweepJournal::append_raw(std::uint64_t offset,
                                const std::string& bytes) {
  Impl& im = *impl_;
  Status st = im.absorb_external();
  if (!st.ok()) return st;
  if (offset != im.durable_size) {
    return Status(StatusCode::kBadInput,
                  "replication stream at byte " + std::to_string(offset) +
                      " but journal '" + im.path + "' is at " +
                      std::to_string(im.durable_size) + "; resync required");
  }
  if (bytes.empty()) return Status::Ok();
  // Validate before writing: the whole batch must be intact frames, or
  // nothing is applied (a torn replication read never half-lands).
  const std::size_t good =
      scan_frames(bytes, 0, [&im](char tag, const std::string& payload) {
        return im.absorb_frame(tag, payload, false);
      });
  if (good != bytes.size()) {
    return Status(StatusCode::kWireMalformed,
                  "replicated journal bytes are torn or corrupt (" +
                      std::to_string(good) + " of " +
                      std::to_string(bytes.size()) +
                      " bytes verified); nothing applied");
  }
  st = im.write_durable(bytes);
  if (!st.ok()) return st;
  scan_frames(bytes, 0, [&im](char tag, const std::string& payload) {
    return im.absorb_frame(tag, payload, true);
  });
  return Status::Ok();
}

CompactResult compact_journal(const std::string& path,
                              const CompactOptions& options) {
  CompactResult result;
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    result.status = Status(StatusCode::kBadInput,
                           errno_message("cannot open journal", path));
    return result;
  }
  std::string data;
  {
    char buf[1 << 16];
    for (;;) {
      const ssize_t n = util::read_some(fd, buf, sizeof buf);
      if (n < 0) {
        ::close(fd);
        result.status = Status(StatusCode::kInternal,
                               errno_message("cannot read journal", path));
        return result;
      }
      if (n == 0) break;
      data.append(buf, static_cast<std::size_t>(n));
    }
  }
  ::close(fd);
  result.bytes_before = data.size();

  const std::size_t header_end = data.find('\n');
  if (header_end == std::string::npos ||
      data.compare(0, header_end, kMagic) != 0) {
    result.status = Status(StatusCode::kBadInput,
                           "'" + path + "' is not a " + kMagic + " file");
    return result;
  }

  // Raw scan (not SweepJournal::open, which would truncate, quarantine
  // or create the file): each kept R frame is copied verbatim, and it is
  // exactly the record recovery stands for its cap.
  std::vector<JournalEntry> kept;
  std::vector<std::string> kept_payloads;
  std::vector<std::string> request_payloads;
  std::vector<JournalRequest> request_parsed;
  int r_frames = 0;
  int basis_frames = 0;
  int epoch_frames = 0;
  std::uint64_t epoch = 0;
  scan_frames(data, header_end + 1, [&](char tag,
                                        const std::string& payload) {
    if (tag == 'R') {
      JournalEntry e;
      if (!parse_journal_entry(payload, &e)) return false;
      ++r_frames;
      if (current_record(e) && find_cap(kept, e.job_cap_watts) == nullptr) {
        kept.push_back(std::move(e));
        kept_payloads.push_back(payload);
      }
    } else if (tag == 'Q') {
      JournalRequest r;
      if (!parse_journal_request(payload, &r)) return false;
      request_payloads.push_back(payload);
      request_parsed.push_back(std::move(r));
    } else if (tag == 'E') {
      std::uint64_t e = 0;
      if (!parse_epoch(payload, &e)) return false;
      ++epoch_frames;
      if (e > epoch) epoch = e;
    } else {
      ++basis_frames;  // legacy `B`: dropped from the rewrite
    }
    return true;
  });
  // A torn tail past the last intact frame does not survive the rewrite
  // (recovery would have truncated it on the next open anyway).

  result.records_kept = static_cast<int>(kept.size());
  result.records_dropped = r_frames - static_cast<int>(kept.size());
  result.epoch = epoch;
  result.epoch_records_dropped = epoch_frames > 0 ? epoch_frames - 1 : 0;
  result.basis_dropped = basis_frames;

  std::string out;
  out += kMagic;
  out += '\n';
  if (epoch > 0) out += frame('E', serialize_epoch(epoch));
  for (const std::string& payload : kept_payloads) out += frame('R', payload);
  for (std::size_t i = 0; i < request_parsed.size(); ++i) {
    bool owes = false;
    for (double cap : request_parsed[i].caps) {
      if (find_cap(kept, cap) == nullptr) {
        owes = true;
        break;
      }
    }
    if (owes) {
      out += frame('Q', request_payloads[i]);
      ++result.requests_kept;
    } else {
      ++result.requests_dropped;
    }
  }

  const std::string tmp = path + ".compact.tmp";
  const int out_fd =
      ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (out_fd < 0) {
    result.status = Status(StatusCode::kInternal,
                           errno_message("cannot create", tmp));
    return result;
  }
  if (util::write_full(out_fd, out.data(), out.size()) != 0 ||
      util::fsync_full(out_fd) != 0) {
    ::close(out_fd);
    result.status =
        Status(StatusCode::kInternal, errno_message("cannot write", tmp));
    return result;
  }
  ::close(out_fd);
  result.bytes_after = out.size();
  if (options.crash_before_rename) {
    // Simulated crash: the fsynced replacement exists but was never
    // renamed in. The original journal is untouched and the `.compact.
    // tmp` leftover is inert (a re-run recreates it with O_TRUNC).
    result.status = Status::Ok();
    return result;
  }
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    result.status = Status(StatusCode::kInternal,
                           errno_message("cannot rename over", path));
    return result;
  }
  if (util::fsync_parent_dir(path) != 0) {
    result.status = Status(
        StatusCode::kInternal,
        errno_message("cannot fsync journal directory", path));
    return result;
  }
  result.renamed = true;
  result.status = Status::Ok();
  return result;
}

}  // namespace powerlim::robust
