#include "serve/protocol.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <sstream>

#include "robust/solve_driver.h"

namespace powerlim::serve {
namespace {

bool single_token(const std::string& s) {
  if (s.empty()) return false;
  return s.find_first_of(" \t\r\n") == std::string::npos;
}

std::string format_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// Splits `payload` at its first newline. Payloads with no newline get
/// an empty body (a done/error frame may legally carry no detail).
void split_first_line(const std::string& payload, std::string* line,
                      std::string* body) {
  const auto nl = payload.find('\n');
  if (nl == std::string::npos) {
    *line = payload;
    body->clear();
  } else {
    *line = payload.substr(0, nl);
    *body = payload.substr(nl + 1);
  }
}

/// Consumes a `key=value` token (tokens are space-separated) from the
/// front of `rest`. Returns false when the next token has a different
/// key or the line is exhausted.
bool take_field(std::string* rest, const char* key, std::string* value) {
  const std::string prefix = std::string(key) + "=";
  if (rest->compare(0, prefix.size(), prefix) != 0) return false;
  const auto end = rest->find(' ', prefix.size());
  if (end == std::string::npos) {
    *value = rest->substr(prefix.size());
    rest->clear();
  } else {
    *value = rest->substr(prefix.size(), end - prefix.size());
    rest->erase(0, end + 1);
  }
  return true;
}

bool parse_number(const std::string& text, double* out) {
  if (text.empty()) return false;
  char* end = nullptr;
  const double v = std::strtod(text.c_str(), &end);
  if (end == nullptr || *end != '\0') return false;
  *out = v;
  return true;
}

bool parse_int(const std::string& text, long* out) {
  if (text.empty()) return false;
  char* end = nullptr;
  const long v = std::strtol(text.c_str(), &end, 10);
  if (end == nullptr || *end != '\0') return false;
  *out = v;
  return true;
}

bool valid_kind(const std::string& kind) {
  return kind == "bound" || kind == "sweep" || kind == "solve";
}

/// bound and solve name exactly one cap.
bool one_cap_kind(const std::string& kind) {
  return kind == "bound" || kind == "solve";
}

/// The field a solve header appends to its journal-request line.
constexpr char kAttemptField[] = " attempt=";

bool parse_u64(const std::string& text, std::uint64_t* out) {
  if (text.empty() || text.size() > 20) return false;
  for (char c : text) {
    if (c < '0' || c > '9') return false;
  }
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
  if (errno != 0 || *end != '\0') return false;
  *out = v;
  return true;
}

bool parse_crc(const std::string& text, std::uint32_t* out) {
  if (text.size() != 8) return false;
  for (char c : text) {
    const bool hex = (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f');
    if (!hex) return false;
  }
  *out = static_cast<std::uint32_t>(std::strtoul(text.c_str(), nullptr, 16));
  return true;
}

std::string crc_hex(std::uint32_t crc) {
  char buf[16];
  std::snprintf(buf, sizeof buf, "%08x", crc);
  return buf;
}

bool valid_role(const std::string& role) {
  return role == "primary" || role == "standby";
}

}  // namespace

std::string encode_hello() {
  std::ostringstream os;
  os << kServeProtoMagic << "\nschema=" << robust::kRunReportSchemaVersion
     << " proto=" << kServeProtoVersion;
  return os.str();
}

bool decode_hello(const std::string& payload, std::string* error) {
  std::string magic, versions;
  split_first_line(payload, &magic, &versions);
  if (magic != kServeProtoMagic) {
    *error = "bad magic (want \"" + std::string(kServeProtoMagic) + "\")";
    return false;
  }
  std::string schema_text, proto_text;
  std::string rest = versions;
  if (!take_field(&rest, "schema", &schema_text) ||
      !take_field(&rest, "proto", &proto_text) || !rest.empty()) {
    *error = "malformed hello version line";
    return false;
  }
  long schema = 0, proto = 0;
  if (!parse_int(schema_text, &schema) || !parse_int(proto_text, &proto)) {
    *error = "malformed hello version line";
    return false;
  }
  if (schema != robust::kRunReportSchemaVersion ||
      proto != kServeProtoVersion) {
    std::ostringstream os;
    os << "version skew: client schema=" << schema << " proto=" << proto
       << ", server schema=" << robust::kRunReportSchemaVersion
       << " proto=" << kServeProtoVersion;
    *error = os.str();
    return false;
  }
  error->clear();
  return true;
}

std::string encode_request(const ServeRequest& request) {
  if (!valid_kind(request.kind)) return "";
  if (one_cap_kind(request.kind) && request.caps.size() != 1) return "";
  if (!single_token(request.id)) return "";
  if (request.caps.empty()) return "";
  if (request.trace_text.empty()) return "";
  if (request.attempt < 0) return "";
  robust::JournalRequest jr;
  jr.id = request.id;
  jr.kind = request.kind;
  jr.deadline_ms = request.deadline_ms;
  jr.caps = request.caps;
  std::string line = robust::serialize_journal_request(jr);
  if (line.empty()) return "";
  if (request.kind == "solve") {
    line += kAttemptField + std::to_string(request.attempt);
  }
  return line + "\n" + request.trace_text;
}

bool decode_request(const std::string& payload, ServeRequest* out,
                    std::string* error) {
  std::string line, trace;
  split_first_line(payload, &line, &trace);
  long attempt = 0;
  const std::size_t at = line.rfind(kAttemptField);
  const bool has_attempt = at != std::string::npos;
  if (has_attempt) {
    if (!parse_int(line.substr(at + std::strlen(kAttemptField)), &attempt) ||
        attempt < 0 || attempt > std::numeric_limits<int>::max()) {
      *error = "malformed request header";
      return false;
    }
    line.erase(at);
  }
  robust::JournalRequest jr;
  if (!robust::parse_journal_request(line, &jr)) {
    *error = "malformed request header";
    return false;
  }
  if (!valid_kind(jr.kind)) {
    *error = "unknown request kind \"" + jr.kind + "\"";
    return false;
  }
  if (one_cap_kind(jr.kind) && jr.caps.size() != 1) {
    *error = jr.kind + " request must carry exactly one cap";
    return false;
  }
  if (has_attempt != (jr.kind == "solve")) {
    *error = "attempt= belongs to solve requests, and only to them";
    return false;
  }
  if (trace.empty()) {
    *error = "request carries no trace";
    return false;
  }
  out->id = jr.id;
  out->kind = jr.kind;
  out->deadline_ms = jr.deadline_ms;
  out->caps = jr.caps;
  out->attempt = static_cast<int>(attempt);
  out->trace_text = trace;
  error->clear();
  return true;
}

std::string encode_row(const ServeRow& row) {
  if (!single_token(row.id)) return "";
  const std::string body = robust::serialize_journal_entry(row.entry);
  if (body.empty()) return "";
  return "id=" + row.id + "\n" + body;
}

bool decode_row(const std::string& payload, ServeRow* out) {
  std::string line, body;
  split_first_line(payload, &line, &body);
  std::string rest = line;
  std::string id;
  if (!take_field(&rest, "id", &id) || !rest.empty() || !single_token(id)) {
    return false;
  }
  robust::JournalEntry entry;
  if (!robust::parse_journal_entry(body, &entry)) return false;
  out->id = id;
  out->entry = std::move(entry);
  return true;
}

std::string encode_overloaded(const ServeOverloaded& o) {
  if (!single_token(o.id) || !single_token(o.reason)) return "";
  return "id=" + o.id + " reason=" + o.reason + "\n" + o.detail;
}

bool decode_overloaded(const std::string& payload, ServeOverloaded* out) {
  std::string line, detail;
  split_first_line(payload, &line, &detail);
  std::string rest = line;
  std::string id, reason;
  if (!take_field(&rest, "id", &id) || !take_field(&rest, "reason", &reason) ||
      !rest.empty() || !single_token(id) || !single_token(reason)) {
    return false;
  }
  out->id = id;
  out->reason = reason;
  out->detail = detail;
  return true;
}

std::string encode_done(const ServeDone& d) {
  if (!single_token(d.id) || !single_token(d.status)) return "";
  std::ostringstream os;
  os << "id=" << d.id << " status=" << d.status << " rows=" << d.rows
     << " resumed=" << d.resumed << " shed_total=" << d.shed_total
     << " queue_depth=" << d.queue_depth
     << " queue_wait_ms=" << format_double(d.queue_wait_ms)
     << " solve_ms=" << format_double(d.solve_ms)
     << " total_ms=" << format_double(d.total_ms) << "\n"
     << d.detail;
  return os.str();
}

bool decode_done(const std::string& payload, ServeDone* out) {
  std::string line, detail;
  split_first_line(payload, &line, &detail);
  std::string rest = line;
  std::string id, status, rows, resumed, shed, depth, wait, solve, total;
  if (!take_field(&rest, "id", &id) || !take_field(&rest, "status", &status) ||
      !take_field(&rest, "rows", &rows) ||
      !take_field(&rest, "resumed", &resumed) ||
      !take_field(&rest, "shed_total", &shed) ||
      !take_field(&rest, "queue_depth", &depth) ||
      !take_field(&rest, "queue_wait_ms", &wait) ||
      !take_field(&rest, "solve_ms", &solve) ||
      !take_field(&rest, "total_ms", &total) || !rest.empty() ||
      !single_token(id) || !single_token(status)) {
    return false;
  }
  long rows_n = 0, resumed_n = 0, shed_n = 0, depth_n = 0;
  double wait_v = 0.0, solve_v = 0.0, total_v = 0.0;
  if (!parse_int(rows, &rows_n) || !parse_int(resumed, &resumed_n) ||
      !parse_int(shed, &shed_n) || !parse_int(depth, &depth_n) ||
      !parse_number(wait, &wait_v) || !parse_number(solve, &solve_v) ||
      !parse_number(total, &total_v)) {
    return false;
  }
  out->id = id;
  out->status = status;
  out->rows = static_cast<int>(rows_n);
  out->resumed = static_cast<int>(resumed_n);
  out->shed_total = shed_n;
  out->queue_depth = static_cast<int>(depth_n);
  out->queue_wait_ms = wait_v;
  out->solve_ms = solve_v;
  out->total_ms = total_v;
  out->detail = detail;
  return true;
}

std::string encode_error(const std::string& id, const std::string& detail) {
  const std::string tok = single_token(id) ? id : "-";
  return "id=" + tok + "\n" + detail;
}

bool decode_error(const std::string& payload, std::string* id,
                  std::string* detail) {
  std::string line;
  split_first_line(payload, &line, detail);
  std::string rest = line;
  if (!take_field(&rest, "id", id) || !rest.empty() || !single_token(*id)) {
    return false;
  }
  return true;
}

std::string encode_heartbeat(const std::string& id) {
  if (!single_token(id)) return "";
  return "id=" + id;
}

bool decode_heartbeat(const std::string& payload, std::string* id) {
  std::string rest = payload;
  return take_field(&rest, "id", id) && rest.empty() && single_token(*id);
}

std::string encode_artifact(const std::string& id,
                            const std::string& schedule_text) {
  if (!single_token(id) || schedule_text.empty()) return "";
  return "id=" + id + "\n" + schedule_text;
}

bool decode_artifact(const std::string& payload, std::string* id,
                     std::string* schedule_text) {
  std::string line;
  split_first_line(payload, &line, schedule_text);
  std::string rest = line;
  return take_field(&rest, "id", id) && rest.empty() && single_token(*id) &&
         !schedule_text->empty();
}

std::string encode_hello_ack(const HelloAck& ack) {
  if (!ack.ok) return "error " + ack.error;
  if (!valid_role(ack.role)) return "";
  return "ok epoch=" + std::to_string(ack.epoch) + " role=" + ack.role;
}

bool decode_hello_ack(const std::string& payload, HelloAck* out) {
  HelloAck ack;
  if (payload.compare(0, 6, "error ") == 0) {
    ack.error = payload.substr(6);
    *out = ack;
    return true;
  }
  if (payload.compare(0, 3, "ok ") != 0) return false;
  std::string rest = payload.substr(3);
  std::string epoch_text, role;
  if (!take_field(&rest, "epoch", &epoch_text) ||
      !take_field(&rest, "role", &role) || !rest.empty()) {
    return false;
  }
  if (!parse_u64(epoch_text, &ack.epoch) || !valid_role(role)) return false;
  ack.ok = true;
  ack.role = role;
  *out = ack;
  return true;
}

std::string encode_promote_ack(const PromoteAck& ack) {
  if (!ack.ok) return "error " + ack.error;
  return "ok epoch=" + std::to_string(ack.epoch);
}

bool decode_promote_ack(const std::string& payload, PromoteAck* out) {
  PromoteAck ack;
  if (payload.compare(0, 6, "error ") == 0) {
    ack.error = payload.substr(6);
    *out = ack;
    return true;
  }
  if (payload.compare(0, 3, "ok ") != 0) return false;
  std::string rest = payload.substr(3);
  std::string epoch_text;
  if (!take_field(&rest, "epoch", &epoch_text) || !rest.empty()) return false;
  if (!parse_u64(epoch_text, &ack.epoch)) return false;
  ack.ok = true;
  *out = ack;
  return true;
}

std::string encode_repl_hello(const ReplHello& hello) {
  std::ostringstream os;
  os << kReplProtoMagic << "\nschema=" << robust::kRunReportSchemaVersion
     << " proto=" << kServeProtoVersion << " epoch=" << hello.epoch;
  for (const ReplMark& mark : hello.marks) {
    if (!single_token(mark.hash)) return "";
    os << "\nhash=" << mark.hash << " off=" << mark.offset
       << " crc=" << crc_hex(mark.crc);
  }
  return os.str();
}

bool decode_repl_hello(const std::string& payload, ReplHello* out,
                       std::string* error) {
  std::istringstream lines(payload);
  std::string line;
  if (!std::getline(lines, line) || line != kReplProtoMagic) {
    *error = "bad magic (want \"" + std::string(kReplProtoMagic) + "\")";
    return false;
  }
  if (!std::getline(lines, line)) {
    *error = "missing repl version line";
    return false;
  }
  std::string rest = line;
  std::string schema_text, proto_text, epoch_text;
  long schema = 0, proto = 0;
  ReplHello hello;
  if (!take_field(&rest, "schema", &schema_text) ||
      !take_field(&rest, "proto", &proto_text) ||
      !take_field(&rest, "epoch", &epoch_text) || !rest.empty() ||
      !parse_int(schema_text, &schema) || !parse_int(proto_text, &proto) ||
      !parse_u64(epoch_text, &hello.epoch)) {
    *error = "malformed repl version line";
    return false;
  }
  if (schema != robust::kRunReportSchemaVersion ||
      proto != kServeProtoVersion) {
    std::ostringstream os;
    os << "version skew: standby schema=" << schema << " proto=" << proto
       << ", primary schema=" << robust::kRunReportSchemaVersion
       << " proto=" << kServeProtoVersion;
    *error = os.str();
    return false;
  }
  while (std::getline(lines, line)) {
    std::string mark_rest = line;
    std::string hash, off_text, crc_text;
    ReplMark mark;
    if (!take_field(&mark_rest, "hash", &hash) ||
        !take_field(&mark_rest, "off", &off_text) ||
        !take_field(&mark_rest, "crc", &crc_text) || !mark_rest.empty() ||
        !single_token(hash) || !parse_u64(off_text, &mark.offset) ||
        !parse_crc(crc_text, &mark.crc)) {
      *error = "malformed repl mark line";
      return false;
    }
    mark.hash = hash;
    hello.marks.push_back(std::move(mark));
  }
  error->clear();
  *out = std::move(hello);
  return true;
}

std::string encode_repl_hello_ack(const ReplHelloAck& ack) {
  if (!ack.ok) return "error " + ack.error;
  return "ok epoch=" + std::to_string(ack.epoch);
}

bool decode_repl_hello_ack(const std::string& payload, ReplHelloAck* out) {
  ReplHelloAck ack;
  if (payload.compare(0, 6, "error ") == 0) {
    ack.error = payload.substr(6);
    *out = ack;
    return true;
  }
  if (payload.compare(0, 3, "ok ") != 0) return false;
  std::string rest = payload.substr(3);
  std::string epoch_text;
  if (!take_field(&rest, "epoch", &epoch_text) || !rest.empty()) return false;
  if (!parse_u64(epoch_text, &ack.epoch)) return false;
  ack.ok = true;
  *out = ack;
  return true;
}

std::string encode_repl_trace(const ReplTrace& trace) {
  if (!single_token(trace.hash) || trace.trace_text.empty()) return "";
  return "hash=" + trace.hash + "\n" + trace.trace_text;
}

bool decode_repl_trace(const std::string& payload, ReplTrace* out) {
  std::string line, body;
  split_first_line(payload, &line, &body);
  std::string rest = line;
  std::string hash;
  if (!take_field(&rest, "hash", &hash) || !rest.empty() ||
      !single_token(hash) || body.empty()) {
    return false;
  }
  out->hash = hash;
  out->trace_text = body;
  return true;
}

std::string encode_repl_journal(const ReplJournal& journal) {
  if (!single_token(journal.hash)) return "";
  return "hash=" + journal.hash + " off=" + std::to_string(journal.offset) +
         " epoch=" + std::to_string(journal.epoch) + "\n" + journal.bytes;
}

bool decode_repl_journal(const std::string& payload, ReplJournal* out) {
  std::string line, body;
  split_first_line(payload, &line, &body);
  std::string rest = line;
  std::string hash, off_text, epoch_text;
  ReplJournal j;
  if (!take_field(&rest, "hash", &hash) ||
      !take_field(&rest, "off", &off_text) ||
      !take_field(&rest, "epoch", &epoch_text) || !rest.empty() ||
      !single_token(hash) || !parse_u64(off_text, &j.offset) ||
      !parse_u64(epoch_text, &j.epoch)) {
    return false;
  }
  j.hash = hash;
  j.bytes = std::move(body);
  *out = std::move(j);
  return true;
}

std::string encode_repl_ack(const ReplAck& ack) {
  if (!single_token(ack.hash)) return "";
  return "hash=" + ack.hash + " off=" + std::to_string(ack.offset) +
         " epoch=" + std::to_string(ack.epoch);
}

bool decode_repl_ack(const std::string& payload, ReplAck* out) {
  std::string rest = payload;
  std::string hash, off_text, epoch_text;
  ReplAck ack;
  if (!take_field(&rest, "hash", &hash) ||
      !take_field(&rest, "off", &off_text) ||
      !take_field(&rest, "epoch", &epoch_text) || !rest.empty() ||
      !single_token(hash) || !parse_u64(off_text, &ack.offset) ||
      !parse_u64(epoch_text, &ack.epoch)) {
    return false;
  }
  ack.hash = hash;
  *out = ack;
  return true;
}

std::string encode_repl_heartbeat(std::uint64_t epoch) {
  return "epoch=" + std::to_string(epoch);
}

bool decode_repl_heartbeat(const std::string& payload,
                           std::uint64_t* epoch) {
  std::string rest = payload;
  std::string epoch_text;
  if (!take_field(&rest, "epoch", &epoch_text) || !rest.empty()) {
    return false;
  }
  return parse_u64(epoch_text, epoch);
}

std::string encode_repl_resync(const ReplResync& resync) {
  if (!single_token(resync.hash)) return "";
  return "hash=" + resync.hash + "\n" + resync.detail;
}

bool decode_repl_resync(const std::string& payload, ReplResync* out) {
  std::string line, detail;
  split_first_line(payload, &line, &detail);
  std::string rest = line;
  std::string hash;
  if (!take_field(&rest, "hash", &hash) || !rest.empty() ||
      !single_token(hash)) {
    return false;
  }
  out->hash = hash;
  out->detail = detail;
  return true;
}

}  // namespace powerlim::serve
