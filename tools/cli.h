// powerlim command-line tool (library part; thin main in powerlim_main.cpp).
//
// Subcommands:
//   trace   <comd|lulesh|sp|bt|exchange> -o FILE [--ranks N] [--iterations N]
//           [--seed S]                         generate a trace file
//   info    FILE                               structural + power summary
//   bound   FILE --socket-cap W [--discrete]   LP bound + replay validation
//           [-o SCHEDULE] [--report FILE]      (RunReport JSON artifact)
//   compare FILE --socket-cap W                Static vs Conductor vs LP
//   sweep   FILE --from W --to W [--step W]    cap sweep of the LP bound
//           [--report FILE] [--inject-fail W]  (per-cap verdicts; failing
//                                              caps degrade, not abort)
//
// bound and sweep solve through robust::SolveDriver's retry/degradation
// ladder: solver failures retry with progressively more conservative
// simplex settings and finally degrade to the Static-policy bound, so a
// sweep always finishes with per-cap verdicts.
//
// sweep additionally supports crash-consistent journaling: --journal
// records every completed cap durably, --resume skips journaled caps on
// restart, and --deadline-ms / --cap-deadline-ms bound the sweep and
// each cap's ladder in wall time. SIGINT/SIGTERM (when main installed
// the handlers) trip a cooperative cancel that stops at the next pivot,
// flushes the journal, and exits with the resumable code.
//
// sweep --workers N (N > 1) forks each cap's ladder into an isolated
// worker process (robust/worker_pool): a segfaulting or OOMing cap is
// contained, retried once in a fresh worker, and finally degraded to
// the Static-policy bound under a worker-crashed / resource-exhausted
// verdict instead of killing the sweep. --worker-mem-mb / --worker-cpu-s
// set per-worker setrlimit budgets; --inject-fail worker-crash /
// worker-oom / worker-hang injure each cap's first spawn to exercise
// the containment path. Results stream to the journal as caps complete,
// so --resume composes with parallel sweeps unchanged.
//
// sweep --remote HOST:PORT[,...] mixes powerlimd endpoints (`serve`)
// into the pool (robust/worker_pool): remote sessions send one `solve`
// request per cap over TCP, with heartbeats and capped-backoff
// reconnects; a lost cap retries on a different worker / falls back
// locally / degrades, and every remote kOk result must re-verify
// through the local exact certificate gate before it is journaled. The
// daemon solves each request in an rlimit-budgeted forked child.
// --inject-fail net-drop / net-stall / net-corrupt / net-slow (and
// net-lie on the daemon) exercise the failure ladder from either
// endpoint.
//
// Exit codes: 0 success (including degraded/partial results), 1 runtime
// failure (bad file, infeasible cap, total sweep failure), 2 usage
// error, 75 (kExitResumable) interrupted-but-resumable sweep.
// All output goes to the provided stream so the suite can test it.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "util/deadline.h"

namespace powerlim::cli {

/// Exit code for a sweep stopped by cancellation or the sweep deadline
/// before every cap completed: BSD's EX_TEMPFAIL, chosen so wrappers can
/// distinguish "re-run with --resume" from hard failure (1) and usage
/// errors (2).
inline constexpr int kExitResumable = 75;

/// Process-wide cancel token observed by every solve the CLI starts.
/// Signal handlers trip it; tests may trip/reset it directly.
util::CancelToken& global_cancel();

/// Installs SIGINT/SIGTERM handlers that trip global_cancel() (the
/// handler is async-signal-safe: one relaxed atomic store). Called once
/// from main; tests that want Ctrl-C semantics may call it too.
void install_signal_handlers();

/// Runs one invocation; returns a process exit code. Errors print a
/// message to `err` and return non-zero instead of throwing.
int run(const std::vector<std::string>& args, std::ostream& out,
        std::ostream& err);

}  // namespace powerlim::cli
