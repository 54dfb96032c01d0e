// Remote cap-solve workers: the `powerlim serve-worker --listen
// host:port` process and the "powerlim-remote v1" protocol it speaks.
//
// serve_worker() accepts one scheduler connection at a time, receives
// the trace + solve options once per connection, then forks one child
// per cap-solve job through the worker pool's spawn_worker (same rlimit
// budgets, same exit-code classification as a local pool worker) and
// streams framed results back, with application-level heartbeats while
// the child solves so the scheduler can tell slow-solve from dead-peer.
// The scheduler side is the worker pool itself (robust/worker_pool.h):
// a pool given remote endpoints dials them, and every cap it loses
// walks the reassignment ladder documented there.
//
// Protocol "powerlim-remote v1", CRC-framed (robust/wire.h), over TCP:
//
//   scheduler -> worker   'T' handshake: config line + trace text
//                         'J' job: "cap=<watts> attempt=<n>"
//                         'Q' quit
//   worker -> scheduler   'A' handshake ack ("ok" | "error <why>")
//                         'H' heartbeat (periodic while a job solves)
//                         'R' result (serialized JournalEntry)
//                         'S' solution artifact (core::write_schedule
//                             text; follows every kOk 'R')
//                         'E' attempt failure ("<code> <detail>": the
//                             worker's child died and was classified)
//
// Trust model: a remote kOk result is accepted only after the
// scheduler's gate re-verifies the shipped solution artifact with the
// exact certificate checker, locally. A buggy or malicious peer can
// waste one attempt; it cannot poison the journal. Degraded /
// infeasible remote verdicts carry no "too good" bound to forge (a
// degraded bound is conservative by construction) and are accepted as
// reported.
#pragma once

#include <iosfwd>
#include <string>

#include "dag/graph.h"
#include "robust/fault_injection.h"
#include "robust/worker_pool.h"
#include "util/deadline.h"
#include "util/socket_io.h"

namespace powerlim::robust {

/// First line of the 'T' handshake payload; a version-skewed peer is
/// rejected in the 'A' ack instead of misparsing jobs.
inline constexpr char kRemoteProtoMagic[] = "powerlim-remote v1";

/// Solve options that cross the wire in the handshake (the subset of
/// SolveDriverOptions a remote solve must replicate for byte-identical
/// results).
struct RemoteSolveConfig {
  double cap_deadline_ms = 0.0;
  bool validate_replay = true;
  bool verify_certificate = true;
  bool discrete = false;
};

/// Builds the 'T' payload: magic, config line, then the serialized
/// trace (dag::write_trace).
std::string encode_handshake(const RemoteSolveConfig& config,
                             const dag::TaskGraph& graph);

/// Parses a 'T' payload. On failure returns false with *error set; the
/// trace text is returned unparsed (the caller owns trace validation so
/// a hostile trace surfaces as a clean 'A' error, not a crash).
bool decode_handshake(const std::string& payload, RemoteSolveConfig* config,
                      std::string* trace_text, std::string* error);

/// 'J' payload round-trip. The cap crosses as %.17g so both ends solve
/// bit-identical values.
std::string encode_job(double job_cap_watts, int attempt);
bool decode_job(const std::string& payload, double* job_cap_watts,
                int* attempt);

struct ServeWorkerOptions {
  util::Endpoint listen;  // port 0 binds an ephemeral port
  /// When set, the bound port is written here once listening (how tests
  /// and scripts discover an ephemeral port).
  std::string port_file;
  /// Exit after serving one connection (tests).
  bool once = false;
  /// Interval between 'H' frames while a child solves, ms.
  double heartbeat_ms = 100.0;
  /// Per-child rlimit budgets, exactly as for local pool workers. When
  /// wall_seconds is 0 it is derived from the handshake's cap deadline.
  WorkerLimits limits;
  /// Worker-side network fault injection (tests / CI fault matrix).
  NetFault fault = NetFault::kNone;
  /// Job attempts (0-based) the fault injures; later attempts are
  /// served honestly so reassignment converges.
  int fault_attempts = 1;
  /// Injected delay for NetFault::kSlow, ms (also the stall-probe
  /// granularity).
  double slow_delay_ms = 250.0;
  /// Graceful shutdown: when this token trips (SIGTERM handler), the
  /// in-flight child is cancelled via SIGTERM, its final frame is
  /// flushed to the scheduler, and serve_worker returns 0.
  const util::CancelToken* cancel = nullptr;
};

/// Runs the serve-worker accept loop until cancelled (or after one
/// connection with `once`). Returns a process exit code; 0 includes
/// cancellation-after-drain.
int serve_worker(const ServeWorkerOptions& options, std::ostream& out,
                 std::ostream& err);

}  // namespace powerlim::robust
