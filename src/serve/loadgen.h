// Concurrent load generator for powerlimd.
//
// Forks N honest clients, each running M sequential requests over its
// own connection, and aggregates per-request latencies into the
// numbers that matter for an admission-controlled daemon: how many
// requests completed, how many were honestly shed as `overloaded`, and
// the p50/p99 latency of the ones that were served. One optional
// *saboteur* client runs alongside (--inject): it misbehaves at the
// protocol level - drops mid-frame, stalls holding a partial frame,
// submits then never reads, or sends a hostile oversized length prefix
// - and the honest clients' results prove the daemon contained it.
//
// Used by `powerlim loadgen`, bench/bench_serve.cpp, and the overload/
// containment tests.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "util/socket_io.h"

namespace powerlim::serve {

/// One replayed request, parsed from a `--replay` file line:
///   <kind> <deadline-ms> <cap[,cap...]>
/// Blank lines and `#` comments are skipped.
struct ReplayItem {
  std::string kind = "sweep";
  double deadline_ms = 0.0;
  std::vector<double> caps;
};

/// Parses a replay file. On failure returns false with a line-numbered
/// explanation in *error and leaves *out untouched.
bool parse_replay_file(const std::string& path, std::vector<ReplayItem>* out,
                       std::string* error);

struct LoadgenOptions {
  util::Endpoint server;
  /// Failover endpoint list (--endpoints). When it has more than one
  /// entry, honest clients route each request through FailoverClient -
  /// unreachable/shedding/dying endpoints advance to the next - instead
  /// of holding one connection to `server`.
  std::vector<util::Endpoint> endpoints;
  /// Replayed request mix (--replay, parse_replay_file). When
  /// non-empty it replaces the synthesized clients*requests fleet:
  /// items are dealt round-robin across `clients` processes and each
  /// client runs its share sequentially. `caps`/`deadline_ms` below
  /// are ignored for replayed items (the file carries its own).
  std::vector<ReplayItem> replay;
  /// Honest client processes.
  int clients = 4;
  /// Sequential requests per client (ignored when `replay` is set).
  int requests = 4;
  /// Caps each request sweeps.
  std::vector<double> caps;
  /// Trace every request solves (dag::write_trace text).
  std::string trace_text;
  /// Per-request deadline shipped to the daemon, ms (0 = none).
  double deadline_ms = 0.0;
  /// Client-side wall ceiling per request, s.
  double wall_timeout_s = 60.0;
  /// Saboteur mode: "" (none), "net-drop", "net-stall", "slow-read",
  /// "oversize".
  std::string inject;
};

struct LoadgenReport {
  /// Requests attempted by honest clients (clients * requests).
  long requests = 0;
  long ok = 0;
  long overloaded = 0;
  long errors = 0;
  /// Latency percentiles over *served* (ok) requests, ms.
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double mean_ms = 0.0;
  /// Whole-run wall time and served-request throughput.
  double wall_s = 0.0;
  double throughput_rps = 0.0;
  /// True when the saboteur (if any) ran and exited.
  bool saboteur_ran = false;

  std::string to_json() const;
};

/// Runs the fleet to completion and aggregates. Progress lines go to
/// `err` (stdout stays clean for --json consumers).
LoadgenReport run_loadgen(const LoadgenOptions& options, std::ostream& err);

}  // namespace powerlim::serve
