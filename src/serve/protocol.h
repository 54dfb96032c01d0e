// Wire protocol of the powerlimd daemon ("powerlimd v1").
//
// powerlimd serves bound/sweep requests over the same CRC framing the
// rest of the distributed layer uses (robust/wire.h): every message is
// one self-checking frame, torn or hostile bytes poison the connection,
// and both sides share the kMaxFrameBytes buffer ceiling. One
// connection carries:
//
//   client -> daemon   'T' hello: "powerlimd v1\nschema=<n> proto=<n>"
//                      'U' request: journal-request line + "\n" + trace
//                      'P' promote: operator asks a standby to take over
//   daemon -> client   'A' hello ack ("ok epoch=<e> role=<r>" |
//                          "error <why>")
//                      'R' row: "id=<id>\n" + serialized JournalEntry
//                          (one per cap, streamed as caps settle)
//                      'O' overloaded / shed: id, typed reason, detail
//                      'D' done: id, terminal status, counts, latencies
//                      'E' request error: "id=<id>\n<detail>"
//                      'p' promote ack ("ok epoch=<e>" | "error <why>")
//                      'H' heartbeat: "id=<id>" (solve requests only)
//                      'S' schedule artifact: "id=<id>\n" +
//                          core::write_schedule text (solve only)
//
// A `solve` request is one cap of a remote sweep (`sweep --remote`,
// robust/worker_pool.h): its header line carries one cap, the
// scheduler's cap deadline as deadline_ms, and " attempt=<n>" (the
// attempts the cap already lost). The daemon never journals a solve and
// never answers one from its journal: it forks one rlimit-budgeted
// child per solve and, while the request is queued or running, sends
// 'H' every kSolveHeartbeatMs. A child that settles answers 'R', then
// 'S' (only for an `ok` row: the proof the scheduler's certificate gate
// re-verifies), then 'D'; a child that dies answers
// 'E' "<failure-class> <detail>" (robust::to_string(WorkerOutcome)),
// with no degraded row and no second fork. Connections that send only
// bound/sweep requests never see 'H' or 'S'.
//
// The same port also speaks the replication sub-protocol
// ("powerlimd-repl v1"): a warm standby's first frame is 'H' instead of
// 'T', which flips the connection into repl mode:
//
//   standby -> primary 'H' repl hello: magic, schema/proto/epoch, one
//                          high-water mark per local journal (absolute
//                          byte offset + CRC of the prefix, so the
//                          primary detects divergent history, not just
//                          missing bytes)
//                      'k' ack: durable high-water mark after an apply
//   primary -> standby 'h' repl hello ack ("ok epoch=<e>" | "error ...")
//                      'G' trace snapshot (idempotent, sent up front)
//                      'J' journal bytes: verbatim frames from byte
//                          offset <off> of journal <hash>, stamped with
//                          the primary's epoch
//                      'K' heartbeat carrying the primary's epoch
//                      'Y' resync: the standby's copy diverged or
//                          outran the primary; quarantine and refetch
//
// A bound/sweep 'U' header line is *exactly* the journal's `Q` record payload
// (robust/journal.h serialize_journal_request), so the daemon journals
// the admission intent byte-for-byte as it arrived; and an 'R' row body
// is exactly a journal `R` payload, so a served row and a journaled row
// are the same bytes, byte-compatible with offline `powerlim sweep
// --journal` files. Per-request facts (queue depth, shed total, queue
// wait, solve and total ms) travel in the 'D' frame, and the failover
// epoch and role in the 'A' ack, never inside a row.
//
// Version skew is settled at hello time: a client whose schema or proto
// differs gets "error ..." in the 'A' ack and nothing else, never a
// misparsed request.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "robust/journal.h"

namespace powerlim::serve {

/// First line of the 'T' hello payload.
inline constexpr char kServeProtoMagic[] = "powerlimd v1";
/// First line of the 'H' repl hello payload.
inline constexpr char kReplProtoMagic[] = "powerlimd-repl v1";
/// Protocol revision pinned next to the RunReport schema in the hello.
/// v2: hello ack carries epoch/role; promote and replication frames.
/// v3: `solve` requests with their heartbeat and artifact frames.
inline constexpr int kServeProtoVersion = 3;

/// Interval between 'H' frames while a solve is queued or running, ms.
inline constexpr double kSolveHeartbeatMs = 100.0;

// Frame tags (client -> daemon).
inline constexpr char kTagHello = 'T';
inline constexpr char kTagRequest = 'U';
inline constexpr char kTagPromote = 'P';
// Frame tags (daemon -> client).
inline constexpr char kTagHelloAck = 'A';
inline constexpr char kTagRow = 'R';
inline constexpr char kTagOverloaded = 'O';
inline constexpr char kTagDone = 'D';
inline constexpr char kTagError = 'E';
inline constexpr char kTagPromoteAck = 'p';
inline constexpr char kTagHeartbeat = 'H';
inline constexpr char kTagArtifact = 'S';
// Replication frame tags (standby -> primary).
inline constexpr char kTagReplHello = 'H';
inline constexpr char kTagReplAck = 'k';
// Replication frame tags (primary -> standby).
inline constexpr char kTagReplHelloAck = 'h';
inline constexpr char kTagReplTrace = 'G';
inline constexpr char kTagReplJournal = 'J';
inline constexpr char kTagReplHeartbeat = 'K';
inline constexpr char kTagReplResync = 'Y';

/// Builds the 'T' payload for this build's schema/proto versions.
std::string encode_hello();

/// Server-side hello check. Returns true when magic, schema and proto
/// all match this build; otherwise false with a human-readable skew
/// description in *error (which becomes the 'A' "error ..." ack).
bool decode_hello(const std::string& payload, std::string* error);

/// The 'A' hello ack: accepted hellos carry the daemon's failover
/// epoch and role so clients can prefer the newest primary and refuse
/// a deposed one.
struct HelloAck {
  bool ok = false;
  std::uint64_t epoch = 0;
  /// "primary" or "standby".
  std::string role;
  /// Refusal detail when !ok.
  std::string error;
};

std::string encode_hello_ack(const HelloAck& ack);
bool decode_hello_ack(const std::string& payload, HelloAck* out);

/// One request. `kind` is "bound" (exactly one cap), "sweep", or
/// "solve" (exactly one cap, never journaled; see above); ids are
/// single tokens, unique per connection (the client matches replies by
/// id).
struct ServeRequest {
  std::string id;
  std::string kind;
  /// bound/sweep: client-side deadline for the whole request, ms
  /// (0 = none); the daemon sheds the request (reason "deadline") rather
  /// than reply later than this. solve: the cap deadline the solve runs
  /// under (0 = none); the daemon kills the child 2 s past it.
  double deadline_ms = 0.0;
  std::vector<double> caps;
  /// solve only: attempts the cap already lost (0 for the first).
  int attempt = 0;
  /// dag::write_trace text of the graph to solve.
  std::string trace_text;
};

/// 'U' payload round-trip. encode returns "" on a malformed request
/// (whitespace in id/kind, no caps, "bound" or "solve" with != 1 cap).
/// A bound/sweep header line is exactly the journal's `Q` record.
std::string encode_request(const ServeRequest& request);
bool decode_request(const std::string& payload, ServeRequest* out,
                    std::string* error);

/// One streamed row: the journal entry for a settled cap, as journaled.
struct ServeRow {
  std::string id;
  robust::JournalEntry entry;
};

std::string encode_row(const ServeRow& row);
bool decode_row(const std::string& payload, ServeRow* out);

/// Load-shed reply. `reason` is typed so clients and tests can branch:
///   queue-full  admission queue at --max-queue, request never admitted
///   deadline    the request's own deadline passed before it could run
///   draining    daemon is shutting down (SIGTERM drain)
struct ServeOverloaded {
  std::string id;
  std::string reason;
  std::string detail;
};

std::string encode_overloaded(const ServeOverloaded& o);
bool decode_overloaded(const std::string& payload, ServeOverloaded* out);

/// Terminal per-request summary. `status`:
///   ok                 every cap settled (possibly degraded rows)
///   deadline-exceeded  killed at the request deadline; rows already
///                      streamed are valid and journaled
///   cancelled          daemon shut down mid-request (resume completes)
///   error              executor failed twice with no degradable graph
struct ServeDone {
  std::string id;
  std::string status;
  int rows = 0;
  int resumed = 0;
  long shed_total = 0;
  int queue_depth = 0;
  double queue_wait_ms = 0.0;
  double solve_ms = 0.0;
  double total_ms = 0.0;
  std::string detail;
};

std::string encode_done(const ServeDone& d);
bool decode_done(const std::string& payload, ServeDone* out);

/// 'E' payload: "id=<id>\n<detail>".
std::string encode_error(const std::string& id, const std::string& detail);
bool decode_error(const std::string& payload, std::string* id,
                  std::string* detail);

/// 'H' payload: "id=<id>".
std::string encode_heartbeat(const std::string& id);
bool decode_heartbeat(const std::string& payload, std::string* id);

/// 'S' payload: "id=<id>\n<core::write_schedule text>".
std::string encode_artifact(const std::string& id,
                            const std::string& schedule_text);
bool decode_artifact(const std::string& payload, std::string* id,
                     std::string* schedule_text);

/// 'p' promote ack: "ok epoch=<e>" (idempotent on an already-primary
/// daemon) or "error <why>".
struct PromoteAck {
  bool ok = false;
  std::uint64_t epoch = 0;
  std::string error;
};

std::string encode_promote_ack(const PromoteAck& ack);
bool decode_promote_ack(const std::string& payload, PromoteAck* out);

/// One journal high-water mark in a repl hello: how many bytes of
/// journal `hash` the standby holds durably, plus the CRC-32 of those
/// bytes. The CRC lets the primary distinguish "behind" (stream the
/// delta) from "divergent" (this file has a different history - force a
/// resync) - offsets alone cannot tell those apart.
struct ReplMark {
  std::string hash;
  std::uint64_t offset = 0;
  std::uint32_t crc = 0;
};

/// 'H' payload: repl magic + schema/proto/epoch line + one mark line
/// per local journal.
struct ReplHello {
  std::uint64_t epoch = 0;
  std::vector<ReplMark> marks;
};

std::string encode_repl_hello(const ReplHello& hello);
/// Strict parse + version check (same skew rules as the client hello).
bool decode_repl_hello(const std::string& payload, ReplHello* out,
                       std::string* error);

/// 'h' payload: "ok epoch=<e>" | "error <why>".
struct ReplHelloAck {
  bool ok = false;
  std::uint64_t epoch = 0;
  std::string error;
};

std::string encode_repl_hello_ack(const ReplHelloAck& ack);
bool decode_repl_hello_ack(const std::string& payload, ReplHelloAck* out);

/// 'G' payload: "hash=<h>\n<trace text>". Idempotent on the standby
/// (same bytes may arrive again after a reconnect).
struct ReplTrace {
  std::string hash;
  std::string trace_text;
};

std::string encode_repl_trace(const ReplTrace& trace);
bool decode_repl_trace(const std::string& payload, ReplTrace* out);

/// 'J' payload: "hash=<h> off=<n> epoch=<e>\n<verbatim journal frames>".
/// `offset` is the absolute byte offset in the journal file where
/// `bytes` begins; the standby applies only at an exact match.
struct ReplJournal {
  std::string hash;
  std::uint64_t offset = 0;
  std::uint64_t epoch = 0;
  std::string bytes;
};

std::string encode_repl_journal(const ReplJournal& journal);
bool decode_repl_journal(const std::string& payload, ReplJournal* out);

/// 'k' payload: "hash=<h> off=<n> epoch=<e>" - the standby's durable
/// high-water mark for one journal after an apply.
struct ReplAck {
  std::string hash;
  std::uint64_t offset = 0;
  std::uint64_t epoch = 0;
};

std::string encode_repl_ack(const ReplAck& ack);
bool decode_repl_ack(const std::string& payload, ReplAck* out);

/// 'K' payload: "epoch=<e>". Sent periodically by the primary; a
/// standby that misses enough of them may auto-promote.
std::string encode_repl_heartbeat(std::uint64_t epoch);
bool decode_repl_heartbeat(const std::string& payload, std::uint64_t* epoch);

/// 'Y' payload: "hash=<h>\n<why>". The standby quarantines its copy of
/// that journal and re-acks from the fresh (header-only) file.
struct ReplResync {
  std::string hash;
  std::string detail;
};

std::string encode_repl_resync(const ReplResync& resync);
bool decode_repl_resync(const std::string& payload, ReplResync* out);

}  // namespace powerlim::serve
