#include "tools/cli.h"

#include <csignal>

#include <algorithm>
#include <cstdint>
#include <map>
#include <optional>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include <fstream>

#include "apps/benchmarks.h"
#include "apps/exchange.h"
#include "check/lint.h"
#include "core/partition.h"
#include "core/schedule_io.h"
#include "core/windowed.h"
#include "dag/analysis.h"
#include "dag/trace_io.h"
#include "dag/windows.h"
#include "machine/power_model.h"
#include "robust/fault_injection.h"
#include "robust/journal.h"
#include "robust/pipeline.h"
#include "robust/solve_driver.h"
#include "serve/client.h"
#include "serve/loadgen.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "util/socket_io.h"
#include "runtime/comparison.h"
#include "runtime/conductor.h"
#include "runtime/static_policy.h"
#include "sim/export.h"
#include "sim/power_window.h"
#include "sim/replay.h"
#include "util/table.h"

namespace powerlim::cli {

util::CancelToken& global_cancel() {
  static util::CancelToken token;
  return token;
}

namespace {

extern "C" void handle_stop_signal(int) {
  // Async-signal-safe: CancelToken::cancel() is one relaxed atomic
  // store. Workers notice at their next deadline check (every pivot),
  // the journal is already durable per completed cap, and run() exits
  // with kExitResumable. A second signal falls through to the default
  // disposition (immediate kill) because we do not re-raise here and
  // SA_RESETHAND is not needed - the handler stays installed, but the
  // sweep is already unwinding.
  global_cancel().cancel();
}

// SIGHUP asks powerlimd to close and reopen its journals (log-rotation
// style); a plain sig_atomic_t store is all the handler does.
volatile std::sig_atomic_t g_reopen_journals = 0;

extern "C" void handle_hup_signal(int) { g_reopen_journals = 1; }

}  // namespace

void install_signal_handlers() {
  struct sigaction sa = {};
  sa.sa_handler = handle_stop_signal;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = SA_RESTART;
  sigaction(SIGINT, &sa, nullptr);
  sigaction(SIGTERM, &sa, nullptr);
}

namespace {

struct ParsedArgs {
  std::vector<std::string> positional;
  std::map<std::string, std::string> options;  // --key value
  std::map<std::string, bool> flags;           // --key (no value)
};

const char* kUsage =
    "usage: powerlim <command> ...\n"
    "  trace    <comd|lulesh|sp|bt|exchange> -o FILE [--ranks N]\n"
    "           [--iterations N] [--seed S]\n"
    "  info     FILE\n"
    "  lint     FILE [FILE...]\n"
    "           (static analysis of traces: DAG structure, message\n"
    "            endpoints, workload sanity, frontier convexity, DVFS\n"
    "            grid, LP cap coverage; file:line diagnostics, exit 1 on\n"
    "            any error)\n"
    "  bound    FILE --socket-cap W [--discrete] [-o SCHEDULE]\n"
    "           [--report FILE] [--deadline-ms MS] [--no-lint]\n"
    "           (solves through the retry/degradation ladder; the trace\n"
    "            must pass lint first (--no-lint to force); -o also\n"
    "            writes SCHEDULE.runreport.json; --deadline-ms bounds\n"
    "            the whole ladder in wall time)\n"
    "  compare  FILE --socket-cap W\n"
    "  sweep    FILE --from W --to W [--step W] [--report FILE]\n"
    "           [--inject-fail W|worker-crash|worker-oom|worker-hang\n"
    "            |net-drop|net-stall|net-corrupt|net-slow]\n"
    "           [--journal FILE [--resume]] [--no-lint]\n"
    "           [--deadline-ms MS] [--cap-deadline-ms MS]\n"
    "           [--workers N [--worker-mem-mb M] [--worker-cpu-s S]]\n"
    "           [--remote HOST:PORT[,HOST:PORT...]\n"
    "            [--remote-timeout-ms MS] [--remote-heartbeat-ms MS]]\n"
    "           (per-cap verdicts; failed caps degrade to the Static\n"
    "            bound instead of aborting; --inject-fail W forces every\n"
    "            ladder rung to fail at that socket cap, worker-* injures\n"
    "            each cap's first worker spawn, net-* each cap's first\n"
    "            scheduler-side remote attempt; --journal records\n"
    "            completed caps durably and --resume skips them on\n"
    "            restart; --workers > 1 forks each cap into an isolated,\n"
    "            crash-contained worker under optional memory/CPU\n"
    "            budgets; --remote mixes powerlimd endpoints (`serve`)\n"
    "            into the pool, one `solve` request per remote cap -\n"
    "            lost caps retry on a different worker, then locally,\n"
    "            then degrade, and remote results must pass the local\n"
    "            certificate gate; exit 75 = interrupted, re-run to\n"
    "            resume)\n"
    "  serve    --listen HOST:PORT [--port-file FILE] [--state-dir DIR]\n"
    "           [--resume] [--max-queue N] [--max-active N] [--workers N]\n"
    "           [--worker-mem-mb M] [--worker-cpu-s S]\n"
    "           [--remote HOST:PORT[,...] [--remote-timeout-ms MS]\n"
    "            [--remote-heartbeat-ms MS]] [--cap-deadline-ms MS]\n"
    "           [--default-deadline-ms MS] [--max-deadline-ms MS]\n"
    "           [--io-timeout-s S] [--idle-timeout-s S] [--max-requests N]\n"
    "           [--inject-fail worker-crash|worker-oom|worker-hang\n"
    "            |net-drop|net-stall|net-corrupt|net-slow|net-lie]\n"
    "           [--inject-attempts N]\n"
    "           [--standby-of HOST:PORT [--promote-after-ms MS]]\n"
    "           [--repl-heartbeat-ms MS]\n"
    "           (powerlimd: long-running bound/sweep daemon with bounded\n"
    "            admission (`overloaded` shed replies, never collapse),\n"
    "            journal-first durability per trace under --state-dir,\n"
    "            and fault degradation to the Static bound; SIGTERM\n"
    "            drains then exits 0, SIGHUP reopens journals, --resume\n"
    "            finishes sweeps a crash interrupted; port 0 binds an\n"
    "            ephemeral port, published via --port-file;\n"
    "            --standby-of runs a warm standby replicating the\n"
    "            primary's journals, serving read-only repeats, and\n"
    "            promoting on `powerlim promote` or - with\n"
    "            --promote-after-ms - on heartbeat silence; a deposed\n"
    "            primary fences itself and exits 76; the same port\n"
    "            answers the one-cap `solve` requests of `sweep\n"
    "            --remote`, each in a budgeted forked child; net-*\n"
    "            faults injure those replies and the executors' own\n"
    "            remote attempts, worker-* faults the solve and sweep\n"
    "            workers)\n"
    "  promote  --server HOST:PORT [--timeout-s S]\n"
    "           (ask a standby powerlimd to take over as primary: bumps\n"
    "            the failover epoch, after which the old primary is\n"
    "            fenced everywhere the epoch travels)\n"
    "  journal  compact FILE [--no-certificate] [--crash-before-rename]\n"
    "           (rewrite a sweep journal keeping only the latest proven\n"
    "            record per cap - certificates are re-checked unless\n"
    "            --no-certificate - plus pending request intents;\n"
    "            crash-safe via write-fsync-rename; offline only)\n"
    "  query    TRACE --server HOST:PORT --from W --to W [--step W]\n"
    "           [--endpoints HOST:PORT[,HOST:PORT...]]\n"
    "           [--deadline-ms MS] [--timeout-s S] [--id ID]\n"
    "           [--report FILE]\n"
    "           (submit a sweep to powerlimd and render the table exactly\n"
    "            as offline `sweep` would; exit 3 = shed as overloaded;\n"
    "            --endpoints retries idempotently across a primary and\n"
    "            its standbys, refusing stale-epoch servers)\n"
    "  loadgen  TRACE --server HOST:PORT [--clients N] [--requests M]\n"
    "           --from W --to W [--step W] [--deadline-ms MS]\n"
    "           [--endpoints HOST:PORT[,...]] [--replay FILE]\n"
    "           [--timeout-s S] [--json]\n"
    "           [--inject net-drop|net-stall|slow-read|oversize]\n"
    "           [--inject-hold-s S]\n"
    "           (concurrent client fleet against powerlimd; reports\n"
    "            ok/overloaded/error counts and p50/p99 latency; --inject\n"
    "            adds one protocol-misbehaving saboteur client; --replay\n"
    "            drives a file of queued requests - one\n"
    "            '<kind> <deadline-ms> <cap[,cap...]>' per line - instead\n"
    "            of a synthesized fleet; --endpoints makes every client\n"
    "            failover-aware)\n"
    "  timeline FILE --socket-cap W [--method static|conductor|lp]\n"
    "           [--width N]\n"
    "  export   FILE --socket-cap W -o PREFIX\n"
    "           (writes PREFIX.gantt.csv and PREFIX.power.csv for the LP\n"
    "            schedule replay)\n"
    "  replay   TRACE SCHEDULE   (replay a saved schedule, validate cap)\n"
    "  analyze  FILE   (load imbalance + communication structure)\n"
    "  energy   FILE --allowance PCT [--socket-cap W]\n"
    "           (minimum-energy schedule within the slowdown allowance)\n"
    "  partition FILE [FILE...] --machine-watts W\n"
    "           (min-max split of the machine budget across jobs)\n"
    "  dot      FILE [-o OUT.dot]   (Graphviz rendering of the task graph)\n";

ParsedArgs parse(const std::vector<std::string>& args, std::size_t start,
                 const std::vector<std::string>& value_opts,
                 const std::vector<std::string>& flag_opts) {
  ParsedArgs out;
  for (std::size_t i = start; i < args.size(); ++i) {
    const std::string& a = args[i];
    if (a.rfind("--", 0) == 0 || a == "-o") {
      const std::string key = a == "-o" ? "-o" : a;
      bool is_flag = false;
      for (const auto& f : flag_opts) is_flag |= f == key;
      if (is_flag) {
        out.flags[key] = true;
        continue;
      }
      bool known = false;
      for (const auto& v : value_opts) known |= v == key;
      if (!known) throw std::runtime_error("unknown option " + a);
      if (i + 1 >= args.size()) {
        throw std::runtime_error("option " + a + " needs a value");
      }
      out.options[key] = args[++i];
    } else {
      out.positional.push_back(a);
    }
  }
  return out;
}

int opt_int(const ParsedArgs& p, const std::string& key, int def) {
  auto it = p.options.find(key);
  if (it == p.options.end()) return def;
  try {
    return std::stoi(it->second);
  } catch (const std::exception&) {
    throw std::runtime_error("option " + key + " needs an integer, got '" +
                             it->second + "'");
  }
}

std::optional<double> opt_double(const ParsedArgs& p, const std::string& key) {
  auto it = p.options.find(key);
  if (it == p.options.end()) return std::nullopt;
  try {
    std::size_t used = 0;
    const double v = std::stod(it->second, &used);
    if (used != it->second.size()) throw std::invalid_argument(it->second);
    return v;
  } catch (const std::exception&) {
    throw std::runtime_error("option " + key + " needs a number, got '" +
                             it->second + "'");
  }
}

const machine::PowerModel& model() {
  static const machine::PowerModel m{machine::SocketSpec{}};
  return m;
}

int cmd_trace(const ParsedArgs& p, std::ostream& out, std::ostream& err) {
  if (p.positional.size() != 1) {
    err << "trace: expected one app name\n";
    return 2;
  }
  const std::string& app = p.positional[0];
  const int ranks = opt_int(p, "--ranks", 8);
  const int iterations = opt_int(p, "--iterations", 12);
  const auto seed = static_cast<std::uint64_t>(opt_int(p, "--seed", 17));
  auto it = p.options.find("-o");
  if (it == p.options.end()) {
    err << "trace: -o FILE is required\n";
    return 2;
  }

  dag::TaskGraph g = [&]() -> dag::TaskGraph {
    if (app == "comd") {
      return apps::make_comd(
          {.ranks = ranks, .iterations = iterations, .seed = seed});
    }
    if (app == "lulesh") {
      return apps::make_lulesh(
          {.ranks = ranks, .iterations = iterations, .seed = seed});
    }
    if (app == "sp") {
      return apps::make_sp(
          {.ranks = ranks, .iterations = iterations, .seed = seed});
    }
    if (app == "bt") {
      return apps::make_bt(
          {.ranks = ranks, .iterations = iterations, .seed = seed});
    }
    if (app == "exchange") return apps::two_rank_exchange();
    throw std::runtime_error("unknown app '" + app + "'");
  }();
  dag::save_trace(it->second, g);
  out << "wrote " << it->second << ": " << g.num_ranks() << " ranks, "
      << g.num_vertices() << " vertices, " << g.num_edges() << " edges\n";
  return 0;
}

int cmd_info(const ParsedArgs& p, std::ostream& out, std::ostream& err) {
  if (p.positional.size() != 1) {
    err << "info: expected one trace file\n";
    return 2;
  }
  const dag::TaskGraph g = dag::load_trace(p.positional[0]);
  const machine::ClusterSpec cluster;
  const core::LpFormulation form(g, model(), cluster);

  std::size_t tasks = 0, messages = 0;
  double total_work = 0;
  for (const dag::Edge& e : g.edges()) {
    if (e.is_task()) {
      ++tasks;
      total_work += e.work.nominal_seconds();
    } else {
      ++messages;
    }
  }
  util::Table t({"property", "value"});
  t.add_row({"ranks", std::to_string(g.num_ranks())});
  t.add_row({"vertices (MPI events)", std::to_string(g.num_vertices())});
  t.add_row({"tasks", std::to_string(tasks)});
  t.add_row({"messages", std::to_string(messages)});
  t.add_row({"iterations", std::to_string(g.max_iteration() + 1)});
  t.add_row({"barrier windows",
             std::to_string(dag::barrier_vertices(g).size() - 1)});
  t.add_row({"total single-thread work (s)", util::Table::num(total_work, 1)});
  t.add_row({"unconstrained optimum (s)",
             util::Table::num(form.unconstrained_makespan(), 3)});
  t.add_row({"min schedulable power (W)",
             util::Table::num(form.min_feasible_power(), 1)});
  t.add_row({"min schedulable per socket (W)",
             util::Table::num(form.min_feasible_power() / g.num_ranks(), 1)});
  out << t.to_string();
  return 0;
}

/// Writes a RunReport (or report array) to `path`; failures are warnings,
/// not errors - the report is an artifact trail, not the result.
void write_report_file(const std::string& path, const std::string& json,
                       std::ostream& out, std::ostream& err) {
  std::ofstream f(path);
  if (!f) {
    err << "warning: cannot write report to " << path << "\n";
    return;
  }
  f << json;
  out << "run report written to " << path << "\n";
}

int cmd_lint(const ParsedArgs& p, std::ostream& out, std::ostream& err) {
  if (p.positional.empty()) {
    err << "lint: expected one or more trace files\n";
    return 2;
  }
  const machine::ClusterSpec cluster;
  int total_errors = 0;
  for (const std::string& path : p.positional) {
    const check::LintReport report =
        check::lint_trace_file(path, model(), cluster);
    for (const check::LintFinding& f : report.findings) {
      out << f.to_string() << "\n";
    }
    total_errors += report.errors();
    out << path << ": " << (report.ok() ? "ok" : "FAILED") << " ("
        << report.errors() << " error(s), " << report.warnings()
        << " warning(s))\n";
  }
  return total_errors > 0 ? 1 : 0;
}

/// Input gate for the solving commands: a trace the linter flags as
/// structurally unsound is rejected up front, with the linter's
/// file:line diagnostics, instead of being solved into a vacuous bound
/// (a zero-work chain "proves" a 0 s makespan without any of the LP
/// machinery noticing). `--no-lint` bypasses the gate.
bool lint_gate(const std::string& path, const ParsedArgs& p, const char* cmd,
               std::ostream& err) {
  if (p.flags.count("--no-lint") > 0) return true;
  const check::LintReport report =
      check::lint_trace_file(path, model(), machine::ClusterSpec{});
  if (report.ok()) return true;
  for (const check::LintFinding& f : report.findings) {
    if (f.severity == check::LintSeverity::kError) {
      err << f.to_string() << "\n";
    }
  }
  err << cmd << ": trace '" << path << "' failed lint with "
      << report.errors()
      << " error(s); fix the trace or pass --no-lint to solve anyway\n";
  return false;
}

int cmd_bound(const ParsedArgs& p, std::ostream& out, std::ostream& err) {
  if (p.positional.size() != 1) {
    err << "bound: expected one trace file\n";
    return 2;
  }
  const auto socket_cap = opt_double(p, "--socket-cap");
  if (!socket_cap) {
    err << "bound: --socket-cap W is required\n";
    return 2;
  }
  const auto trace = robust::load_trace_checked(p.positional[0]);
  if (!trace.ok()) {
    err << "error: " << trace.status().message() << "\n";
    return 1;
  }
  if (!lint_gate(p.positional[0], p, "bound", err)) return 1;
  const dag::TaskGraph& g = *trace;
  const machine::ClusterSpec cluster;
  const double job_cap = *socket_cap * g.num_ranks();

  robust::SolveDriverOptions dopt;
  dopt.lp.discrete = p.flags.count("--discrete") > 0;
  if (const auto ms = opt_double(p, "--deadline-ms")) {
    dopt.cap_deadline_ms = *ms;
  }
  dopt.cancel = &global_cancel();
  const robust::SolveDriver driver(g, model(), cluster, dopt);
  const robust::SolveOutcome res = driver.solve(job_cap);
  const robust::RunReport& rep = res.report;

  if (auto it = p.options.find("--report"); it != p.options.end()) {
    write_report_file(it->second, rep.to_json() + "\n", out, err);
  }

  if (rep.verdict == robust::StatusCode::kInfeasibleCap) {
    err << "infeasible: " << rep.detail << "\n";
    return 1;
  }
  if (!rep.usable()) {
    err << "error: " << rep.detail << "\n";
    return 1;
  }

  if (rep.degraded) {
    util::Table t({"metric", "value"});
    t.add_row({"job power cap (W)", util::Table::num(job_cap, 1)});
    t.add_row({"verdict", std::string(robust::to_string(rep.verdict)) +
                              ", degraded (" + rep.fallback + " fallback)"});
    t.add_row({"degraded bound (s)", util::Table::num(rep.bound_seconds, 4)});
    t.add_row({"ladder attempts", std::to_string(rep.attempts.size())});
    out << t.to_string();
    out << "note: every LP ladder rung failed; the bound above is the "
           "achievable " << rep.fallback
        << " time, an upper bound on the optimum, not the LP bound.\n";
    return 0;
  }

  // verdict == kOk: the driver replay-validated the schedule.
  const sim::SimResult& replay = *res.simulated;
  if (auto it = p.options.find("-o"); it != p.options.end()) {
    core::SavedSchedule saved;
    saved.schedule = res.lp.schedule;
    saved.frontiers = res.lp.frontiers;
    saved.vertex_time = res.lp.vertex_time;
    saved.job_cap_watts = job_cap;
    saved.makespan = res.lp.makespan;
    core::save_schedule(it->second, saved);
    out << "schedule written to " << it->second << "\n";
    write_report_file(it->second + ".runreport.json", rep.to_json() + "\n",
                      out, err);
  }
  util::Table t({"metric", "value"});
  t.add_row({"job power cap (W)", util::Table::num(job_cap, 1)});
  t.add_row({"LP bound (s)", util::Table::num(res.lp.makespan, 4)});
  t.add_row({"replayed (s)", util::Table::num(replay.makespan, 4)});
  t.add_row({"replay peak power (W)", util::Table::num(replay.peak_power, 2)});
  t.add_row({"RAPL 10ms max avg (W)",
             util::Table::num(rep.replay.check.max_windowed_power, 2)});
  t.add_row({"cap verdict", rep.replay.check.ok ? "valid" : "VIOLATED"});
  t.add_row({"energy (kJ)", util::Table::num(replay.energy_joules / 1e3, 2)});
  t.add_row({"simplex iterations", std::to_string(res.lp.iterations)});
  t.add_row({"ladder attempts", std::to_string(rep.attempts.size())});
  t.add_row({"marginal value of power (ms/W)",
             util::Table::num(res.lp.power_price_s_per_watt * 1e3, 3)});
  out << t.to_string();
  return 0;
}

int cmd_compare(const ParsedArgs& p, std::ostream& out, std::ostream& err) {
  if (p.positional.size() != 1) {
    err << "compare: expected one trace file\n";
    return 2;
  }
  const auto socket_cap = opt_double(p, "--socket-cap");
  if (!socket_cap) {
    err << "compare: --socket-cap W is required\n";
    return 2;
  }
  const dag::TaskGraph g = dag::load_trace(p.positional[0]);
  const machine::ClusterSpec cluster;
  runtime::ComparisonOptions opt;
  opt.job_cap_watts = *socket_cap * g.num_ranks();
  opt.run_adagio = true;
  const auto r = runtime::compare_methods(g, model(), cluster, opt);
  if (!r.lp.feasible) {
    err << "infeasible at this cap\n";
    return 1;
  }
  util::Table t({"method", "steady_s", "vs_static", "peak_w", "avg_w"});
  auto add = [&](const char* name, const runtime::MethodResult& m) {
    if (!m.feasible) return;
    t.add_row({name, util::Table::num(m.window_seconds, 3),
               util::Table::pct(r.static_alloc.window_seconds /
                                        m.window_seconds -
                                    1.0,
                                1),
               util::Table::num(m.peak_power, 0),
               util::Table::num(m.average_power, 0)});
  };
  add("Static", r.static_alloc);
  add("Adagio", r.adagio);
  add("Conductor", r.conductor);
  add("LP bound", r.lp);
  out << t.to_string();
  return 0;
}

struct SweepTableStats {
  std::size_t usable = 0;
  std::size_t hard_failures = 0;
};

/// Renders the per-cap verdict table shared by `sweep` (offline) and
/// `query` (daemon-served). One render path is what makes the
/// daemon-vs-offline byte-identity guarantee testable: both commands
/// feed their rows through these exact bytes.
SweepTableStats render_sweep_table(const std::vector<robust::SweepRow>& rows,
                                   int ranks, std::ostream& out) {
  double best = -1.0;  // smallest optimal LP bound across the sweep
  for (const robust::SweepRow& row : rows) {
    if (row.verdict == robust::StatusCode::kOk &&
        (best < 0 || row.bound_seconds < best)) {
      best = row.bound_seconds;
    }
  }

  util::Table t({"socket_w", "bound_s", "slowdown_vs_best", "verdict"});
  SweepTableStats stats;
  for (const robust::SweepRow& row : rows) {
    const std::string w = util::Table::num(row.job_cap_watts / ranks, 1);
    if (row.verdict == robust::StatusCode::kOk) {
      ++stats.usable;
      t.add_row({w, util::Table::num(row.bound_seconds, 4),
                 util::Table::pct(row.bound_seconds / best - 1.0, 1), "ok"});
    } else if (row.verdict == robust::StatusCode::kInfeasibleCap) {
      t.add_row({w, "n/s", "-", "infeasible"});
    } else if (row.degraded) {
      ++stats.usable;
      t.add_row({w, util::Table::num(row.bound_seconds, 4),
                 best > 0
                     ? util::Table::pct(row.bound_seconds / best - 1.0, 1)
                     : std::string("-"),
                 "degraded (" + row.fallback + ")"});
    } else {
      ++stats.hard_failures;
      t.add_row({w, "n/s", "-", robust::to_string(row.verdict)});
    }
  }
  out << t.to_string();
  return stats;
}

/// The report file written by `sweep --report` and `query --report`.
std::string rows_report_json(const std::vector<robust::SweepRow>& rows) {
  std::vector<std::string> reports;
  reports.reserve(rows.size());
  for (const robust::SweepRow& row : rows) reports.push_back(row.report_json);
  return robust::reports_to_json(reports);
}

/// Splits a comma-separated endpoint list ("h1:p1,h2:p2").
std::vector<std::string> split_endpoints(const std::string& text) {
  std::vector<std::string> out;
  std::string rest = text;
  while (!rest.empty()) {
    const std::size_t comma = rest.find(',');
    const std::string one = rest.substr(0, comma);
    if (!one.empty()) out.push_back(one);
    if (comma == std::string::npos) break;
    rest.erase(0, comma + 1);
  }
  return out;
}

int cmd_sweep(const ParsedArgs& p, std::ostream& out, std::ostream& err) {
  if (p.positional.size() != 1) {
    err << "sweep: expected one trace file\n";
    return 2;
  }
  const auto from = opt_double(p, "--from");
  const auto to = opt_double(p, "--to");
  const double step = opt_double(p, "--step").value_or(5.0);
  if (!from || !to || step <= 0) {
    err << "sweep: --from W --to W [--step W] required\n";
    return 2;
  }
  const bool resume = p.flags.count("--resume") > 0;
  const auto journal_it = p.options.find("--journal");
  if (resume && journal_it == p.options.end()) {
    err << "sweep: --resume requires --journal FILE\n";
    return 2;
  }
  const int workers = opt_int(p, "--workers", 1);
  if (workers < 1) {
    err << "sweep: --workers must be >= 1\n";
    return 2;
  }
  const auto trace = robust::load_trace_checked(p.positional[0]);
  if (!trace.ok()) {
    err << "error: " << trace.status().message() << "\n";
    return 1;
  }
  if (!lint_gate(p.positional[0], p, "sweep", err)) return 1;
  const dag::TaskGraph& g = *trace;
  const machine::ClusterSpec cluster;

  // --inject-fail W: force every ladder rung to fail at that socket cap
  // (demonstrates the degradation path end to end; see robust/).
  // --inject-fail worker-crash|worker-oom|worker-hang: injure every
  // cap's first worker spawn instead, so `--workers N` exercises the
  // supervisor's containment + retry-in-a-fresh-worker for real.
  robust::FaultPlan plan;
  std::optional<robust::ScopedFaultPlan> scope;
  if (const auto it = p.options.find("--inject-fail");
      it != p.options.end()) {
    robust::WorkerFault wf = robust::WorkerFault::kNone;
    robust::NetFault nf = robust::NetFault::kNone;
    if (robust::worker_fault_from_string(it->second, &wf)) {
      plan.worker_fault = wf;
      scope.emplace(plan);
    } else if (robust::net_fault_from_string(it->second, &nf)) {
      // Scheduler-side network fault: injures each cap's first remote
      // dispatch so the reassignment ladder is exercised from this end.
      plan.net_fault = nf;
      scope.emplace(plan);
    } else if (const auto inject = opt_double(p, "--inject-fail")) {
      plan.fail_attempts = 99;
      plan.forced_status = lp::SolveStatus::kNumericalError;
      plan.only_job_cap = *inject * g.num_ranks();
      plan.cap_tolerance = 1e-6 * std::max(1.0, plan.only_job_cap);
      scope.emplace(plan);
    }
  }

  std::vector<double> caps;
  for (double w = *from; w <= *to + 1e-9; w += step) {
    caps.push_back(w * g.num_ranks());
  }

  robust::ResilientSweepOptions ropt;
  ropt.driver.cancel = &global_cancel();
  if (const auto ms = opt_double(p, "--cap-deadline-ms")) {
    ropt.driver.cap_deadline_ms = *ms;
  }
  if (const auto ms = opt_double(p, "--deadline-ms")) {
    ropt.deadline = util::Deadline::after(*ms / 1000.0, &global_cancel());
  } else {
    ropt.deadline = util::Deadline::cancel_only(&global_cancel());
  }
  if (journal_it != p.options.end()) ropt.journal_path = journal_it->second;
  ropt.resume = resume;
  ropt.workers = workers;
  ropt.worker_mem_mb = opt_int(p, "--worker-mem-mb", 0);
  if (const auto s = opt_double(p, "--worker-cpu-s")) ropt.worker_cpu_s = *s;
  if (const auto it = p.options.find("--remote"); it != p.options.end()) {
    ropt.remotes = split_endpoints(it->second);
    if (ropt.remotes.empty()) {
      err << "sweep: --remote needs at least one host:port\n";
      return 2;
    }
  }
  if (const auto ms = opt_double(p, "--remote-timeout-ms")) {
    ropt.remote_timeout_ms = *ms;
  }
  if (const auto ms = opt_double(p, "--remote-heartbeat-ms")) {
    ropt.remote_heartbeat_ms = *ms;
  }

  const auto swept =
      robust::resilient_sweep(g, model(), cluster, caps, ropt);
  if (!swept.ok()) {
    err << "error: " << swept.status().message() << "\n";
    return 1;
  }
  const robust::ResilientSweepResult& res = *swept;

  const SweepTableStats stats = render_sweep_table(res.rows, g.num_ranks(),
                                                   out);
  if (scope && plan.forces_status()) {
    out << "note: --inject-fail forced all ladder rungs to fail at "
        << plan.only_job_cap / g.num_ranks()
        << " W/socket; that cap reports the degraded " << "Static-policy"
        << " bound (achievable, not optimal).\n";
  }
  if (scope && plan.worker_fault != robust::WorkerFault::kNone) {
    out << "note: --inject-fail " << robust::to_string(plan.worker_fault)
        << " injured each cap's first worker spawn"
        << (ropt.workers > 1 ? "" : " (no-op without --workers > 1)")
        << ".\n";
  }
  if (scope && plan.net_fault != robust::NetFault::kNone) {
    out << "note: --inject-fail " << robust::to_string(plan.net_fault)
        << " injured each cap's first scheduler-side remote attempt"
        << (ropt.remotes.empty() ? " (no-op without --remote)" : "")
        << ".\n";
  }
  if (ropt.workers > 1) {
    const robust::WorkerPoolStats& ws = res.worker_stats;
    out << "workers: " << ropt.workers << " in flight, " << ws.spawned
        << " spawn(s) over " << ws.tasks << " cap(s); " << ws.clean
        << " clean, " << ws.crashes << " crash(es), "
        << ws.resource_exhausted << " resource-exhausted, " << ws.timeouts
        << " timeout(s), " << ws.retries << " retried; peak worker rss "
        << ws.max_peak_rss_kb << " KiB\n";
  }
  if (!ropt.remotes.empty()) {
    const robust::WorkerPoolStats& ws = res.worker_stats;
    out << "remotes: " << ropt.remotes.size() << " endpoint(s); "
        << ws.remote_clean << " cap(s) solved remotely, "
        << ws.remote_failures << " remote failure(s), "
        << ws.certificate_rejects << " certificate-rejected\n";
  }
  if (res.resumed > 0) {
    out << "resumed " << res.resumed << " cap(s) from journal, solved "
        << res.solved << " fresh\n";
  }
  if (!res.recovery.clean()) {
    if (res.recovery.quarantined_bytes > 0) {
      out << "journal recovery: quarantined "
          << res.recovery.quarantined_bytes
          << " byte(s) of torn/corrupt tail\n";
    }
    if (res.recovery.quarantined_file) {
      out << "journal recovery: unrecognized journal moved to "
          << res.recovery.quarantine_path << "\n";
    }
    if (res.recovery.duplicates_dropped > 0) {
      out << "journal recovery: dropped "
          << res.recovery.duplicates_dropped << " duplicate record(s)\n";
    }
  }

  if (auto it = p.options.find("--report"); it != p.options.end()) {
    // Built from the rows, so a resumed sweep writes the identical file.
    write_report_file(it->second, rows_report_json(res.rows), out, err);
  }

  if (res.interrupted) {
    err << "sweep interrupted ("
        << (res.stop == util::StopReason::kCancelled ? "cancelled"
                                                     : "deadline expired")
        << ") after " << res.rows.size() << "/" << caps.size()
        << " cap(s)";
    if (!ropt.journal_path.empty()) {
      err << "; re-run with --journal " << ropt.journal_path
          << " --resume to continue";
    }
    err << "\n";
    return kExitResumable;
  }
  // Partial results are success; only a sweep where some cap failed
  // outright and *nothing* produced a bound is an error.
  return stats.usable == 0 && stats.hard_failures > 0 ? 1 : 0;
}

/// Per-socket watt range -> job-level caps, the same arithmetic
/// `sweep` uses (so `query` against a daemon asks for the identical
/// cap set).
std::vector<double> caps_from_range(double from, double to, double step,
                                    int ranks) {
  std::vector<double> caps;
  for (double w = from; w <= to + 1e-9; w += step) {
    caps.push_back(w * ranks);
  }
  return caps;
}

int cmd_serve(const ParsedArgs& p, std::ostream& out, std::ostream& err) {
  const auto listen_it = p.options.find("--listen");
  if (listen_it == p.options.end()) {
    err << "serve: --listen HOST:PORT is required\n";
    return 2;
  }
  serve::ServeOptions so;
  so.listen = listen_it->second;
  if (const auto it = p.options.find("--port-file"); it != p.options.end()) {
    so.port_file = it->second;
  }
  if (const auto it = p.options.find("--state-dir"); it != p.options.end()) {
    so.state_dir = it->second;
  }
  so.resume = p.flags.count("--resume") > 0;
  so.max_queue = opt_int(p, "--max-queue", 16);
  so.max_active = opt_int(p, "--max-active", 1);
  if (so.max_queue < 1 || so.max_active < 1) {
    err << "serve: --max-queue and --max-active must be >= 1\n";
    return 2;
  }
  so.workers = opt_int(p, "--workers", 1);
  if (so.workers < 1) {
    err << "serve: --workers must be >= 1\n";
    return 2;
  }
  so.worker_mem_mb = opt_int(p, "--worker-mem-mb", 0);
  if (const auto s = opt_double(p, "--worker-cpu-s")) so.worker_cpu_s = *s;
  if (const auto it = p.options.find("--remote"); it != p.options.end()) {
    so.remotes = split_endpoints(it->second);
    if (so.remotes.empty()) {
      err << "serve: --remote needs at least one host:port\n";
      return 2;
    }
  }
  if (const auto ms = opt_double(p, "--remote-timeout-ms")) {
    so.remote_timeout_ms = *ms;
  }
  if (const auto ms = opt_double(p, "--remote-heartbeat-ms")) {
    so.remote_heartbeat_ms = *ms;
  }
  if (const auto ms = opt_double(p, "--cap-deadline-ms")) {
    so.cap_deadline_ms = *ms;
  }
  if (const auto ms = opt_double(p, "--default-deadline-ms")) {
    so.default_deadline_ms = *ms;
  }
  if (const auto ms = opt_double(p, "--max-deadline-ms")) {
    so.max_deadline_ms = *ms;
  }
  if (const auto s = opt_double(p, "--io-timeout-s")) so.io_timeout_s = *s;
  if (const auto s = opt_double(p, "--idle-timeout-s")) {
    so.idle_timeout_s = *s;
  }
  so.max_requests = opt_int(p, "--max-requests", 0);

  if (const auto it = p.options.find("--standby-of"); it != p.options.end()) {
    util::Endpoint primary;
    if (!util::parse_endpoint(it->second, &primary)) {
      err << "serve: bad --standby-of '" << it->second << "'\n";
      return 2;
    }
    if (so.state_dir.empty()) {
      err << "serve: --standby-of needs --state-dir (the replica is the "
             "point)\n";
      return 2;
    }
    so.standby_of = it->second;
  }
  if (const auto ms = opt_double(p, "--promote-after-ms")) {
    if (so.standby_of.empty()) {
      err << "serve: --promote-after-ms only applies with --standby-of\n";
      return 2;
    }
    so.promote_after_ms = *ms;
  }
  if (const auto ms = opt_double(p, "--repl-heartbeat-ms")) {
    if (*ms <= 0) {
      err << "serve: --repl-heartbeat-ms must be > 0\n";
      return 2;
    }
    so.repl_heartbeat_ms = *ms;
  }

  // Fault injection inherited by every forked executor and solve child:
  // worker-* faults injure the executors' workers and the solve children
  // (same semantics as offline `sweep --inject-fail`); net-* faults
  // injure the replies to `solve` requests and the executors' own remote
  // attempts.
  robust::FaultPlan plan;
  std::optional<robust::ScopedFaultPlan> scope;
  if (const auto it = p.options.find("--inject-fail");
      it != p.options.end()) {
    robust::WorkerFault wf = robust::WorkerFault::kNone;
    robust::NetFault nf = robust::NetFault::kNone;
    if (robust::worker_fault_from_string(it->second, &wf)) {
      plan.worker_fault = wf;
    } else if (robust::net_fault_from_string(it->second, &nf)) {
      plan.net_fault = nf;
    } else {
      err << "serve: --inject-fail wants worker-crash|worker-oom|"
             "worker-hang|net-drop|net-stall|net-corrupt|net-slow|net-lie\n";
      return 2;
    }
    plan.worker_fault_attempts = opt_int(p, "--inject-attempts", 1);
    plan.net_fault_attempts = plan.worker_fault_attempts;
    scope.emplace(plan);
  }

  // SIGTERM/SIGINT (via the global cancel token) drain; SIGHUP reopens
  // the journals of active requests.
  so.cancel = &global_cancel();
  so.reopen_flag = &g_reopen_journals;
  struct sigaction sa = {};
  sa.sa_handler = handle_hup_signal;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = SA_RESTART;
  sigaction(SIGHUP, &sa, nullptr);

  const machine::ClusterSpec cluster;
  return serve::serve(so, model(), cluster, out, err);
}

int cmd_promote(const ParsedArgs& p, std::ostream& out, std::ostream& err) {
  const auto server_it = p.options.find("--server");
  util::Endpoint server;
  if (server_it == p.options.end() ||
      !util::parse_endpoint(server_it->second, &server)) {
    err << "promote: --server HOST:PORT is required\n";
    return 2;
  }
  const double timeout_s = opt_double(p, "--timeout-s").value_or(10.0);
  serve::ServeClient client;
  if (const robust::Status st = client.connect(server, timeout_s);
      !st.ok()) {
    err << "promote: " << st.to_string() << "\n";
    return 1;
  }
  std::uint64_t epoch = 0;
  if (const robust::Status st = client.promote(&epoch, timeout_s);
      !st.ok()) {
    err << "promote: " << st.to_string() << "\n";
    return 1;
  }
  out << "promoted: epoch=" << epoch << " role=primary\n";
  return 0;
}

int cmd_journal(const ParsedArgs& p, std::ostream& out, std::ostream& err) {
  if (p.positional.size() != 2 || p.positional[0] != "compact") {
    err << "journal: expected 'journal compact FILE'\n";
    return 2;
  }
  robust::CompactOptions co;
  co.require_certificate = p.flags.count("--no-certificate") == 0;
  co.crash_before_rename = p.flags.count("--crash-before-rename") > 0;
  const robust::CompactResult res =
      robust::compact_journal(p.positional[1], co);
  if (!res.status.ok()) {
    err << "journal compact: " << res.status.to_string() << "\n";
    return 1;
  }
  if (!res.renamed) {
    out << "stopped before rename (--crash-before-rename); original "
           "journal untouched\n";
    return 0;
  }
  out << "compacted: " << res.bytes_before << " -> " << res.bytes_after
      << " bytes, kept " << res.records_kept << " cap record(s) (dropped "
      << res.records_dropped << "), kept " << res.requests_kept
      << " request intent(s) (dropped " << res.requests_dropped
      << "), dropped " << res.basis_dropped
      << " legacy basis checkpoint(s), collapsed "
      << res.epoch_records_dropped << " epoch stamp(s)";
  if (res.epoch > 0) out << ", epoch=" << res.epoch;
  out << "\n";
  return 0;
}

int cmd_query(const ParsedArgs& p, std::ostream& out, std::ostream& err) {
  if (p.positional.size() != 1) {
    err << "query: expected one trace file\n";
    return 2;
  }
  const auto server_it = p.options.find("--server");
  const auto endpoints_it = p.options.find("--endpoints");
  util::Endpoint server;
  std::vector<util::Endpoint> endpoints;
  if (endpoints_it != p.options.end()) {
    for (const std::string& one : split_endpoints(endpoints_it->second)) {
      util::Endpoint ep;
      if (!util::parse_endpoint(one, &ep)) {
        err << "query: bad endpoint '" << one << "' in --endpoints\n";
        return 2;
      }
      endpoints.push_back(ep);
    }
    if (endpoints.empty()) {
      err << "query: --endpoints needs at least one host:port\n";
      return 2;
    }
  } else if (server_it == p.options.end() ||
             !util::parse_endpoint(server_it->second, &server)) {
    err << "query: --server HOST:PORT (or --endpoints) is required\n";
    return 2;
  }
  const auto from = opt_double(p, "--from");
  const auto to = opt_double(p, "--to");
  const double step = opt_double(p, "--step").value_or(5.0);
  if (!from || !to || step <= 0) {
    err << "query: --from W --to W [--step W] required\n";
    return 2;
  }
  const auto trace = robust::load_trace_checked(p.positional[0]);
  if (!trace.ok()) {
    err << "error: " << trace.status().message() << "\n";
    return 1;
  }
  const dag::TaskGraph& g = *trace;

  serve::ServeRequest req;
  req.id = p.options.count("--id") ? p.options.at("--id") : "query";
  req.caps = caps_from_range(*from, *to, step, g.num_ranks());
  req.kind = req.caps.size() == 1 ? "bound" : "sweep";
  if (const auto ms = opt_double(p, "--deadline-ms")) req.deadline_ms = *ms;
  {
    // Canonical serialization, not the file's raw bytes: two files with
    // the same graph but different formatting hit the same daemon-side
    // journal.
    std::ostringstream ts;
    dag::write_trace(ts, g);
    req.trace_text = ts.str();
  }

  const double wall_s =
      opt_double(p, "--timeout-s").value_or(
          req.deadline_ms > 0 ? req.deadline_ms / 1000.0 + 30.0 : 600.0);
  serve::CollectResult got;
  if (!endpoints.empty()) {
    serve::FailoverClient failover(endpoints);
    serve::FailoverResult fr = failover.request(req, /*connect_timeout_s=*/5.0,
                                                wall_s);
    got = std::move(fr.result);
    if (!fr.detail.empty()) err << "query: failover: " << fr.detail << "\n";
  } else {
    serve::ServeClient client;
    if (const robust::Status st = client.connect(server); !st.ok()) {
      err << "query: " << st.to_string() << "\n";
      return 1;
    }
    if (const robust::Status st = client.submit(req); !st.ok()) {
      err << "query: " << st.to_string() << "\n";
      return 1;
    }
    got = client.collect(req.id, wall_s);
  }

  if (got.status == serve::CollectStatus::kOverloaded) {
    err << "query: overloaded (" << got.overloaded.reason << "): "
        << got.overloaded.detail << "\n";
    return 3;
  }
  if (got.status == serve::CollectStatus::kRequestError) {
    err << "query: request rejected: " << got.error_detail << "\n";
    return 1;
  }
  if (got.status != serve::CollectStatus::kDone) {
    err << "query: " << serve::to_string(got.status) << ": "
        << got.error_detail << "\n";
    return 1;
  }

  // Present rows in requested cap order (the daemon streams them in
  // completion order), exactly as `sweep` would.
  std::vector<robust::SweepRow> rows;
  for (double cap : req.caps) {
    for (const serve::ServeRow& row : got.rows) {
      if (row.entry.job_cap_watts == cap) {
        rows.push_back(robust::SweepRow{row.entry, false});
        break;
      }
    }
  }
  const SweepTableStats stats = render_sweep_table(rows, g.num_ranks(), out);
  out << "served: status=" << got.done.status << " rows=" << got.done.rows
      << " resumed=" << got.done.resumed
      << " queue_wait_ms=" << got.done.queue_wait_ms
      << " total_ms=" << got.done.total_ms << " epoch=" << got.epoch
      << " role=" << got.role << "\n";

  if (auto it = p.options.find("--report"); it != p.options.end()) {
    write_report_file(it->second, rows_report_json(rows), out, err);
  }
  if (got.done.status != "ok") {
    err << "query: request ended " << got.done.status
        << (got.done.detail.empty() ? "" : ": " + got.done.detail) << "\n";
    return 1;
  }
  return stats.usable == 0 && stats.hard_failures > 0 ? 1 : 0;
}

int cmd_loadgen(const ParsedArgs& p, std::ostream& out, std::ostream& err) {
  if (p.positional.size() != 1) {
    err << "loadgen: expected one trace file\n";
    return 2;
  }
  serve::LoadgenOptions lo;
  const auto server_it = p.options.find("--server");
  const auto endpoints_it = p.options.find("--endpoints");
  if (endpoints_it != p.options.end()) {
    for (const std::string& one : split_endpoints(endpoints_it->second)) {
      util::Endpoint ep;
      if (!util::parse_endpoint(one, &ep)) {
        err << "loadgen: bad endpoint '" << one << "' in --endpoints\n";
        return 2;
      }
      lo.endpoints.push_back(ep);
    }
    if (lo.endpoints.empty()) {
      err << "loadgen: --endpoints needs at least one host:port\n";
      return 2;
    }
    lo.server = lo.endpoints.front();
  } else if (server_it == p.options.end() ||
             !util::parse_endpoint(server_it->second, &lo.server)) {
    err << "loadgen: --server HOST:PORT (or --endpoints) is required\n";
    return 2;
  }
  lo.clients = opt_int(p, "--clients", 4);
  lo.requests = opt_int(p, "--requests", 4);
  if (lo.clients < 1 || lo.requests < 1) {
    err << "loadgen: --clients and --requests must be >= 1\n";
    return 2;
  }
  if (const auto it = p.options.find("--replay"); it != p.options.end()) {
    std::string perr;
    if (!serve::parse_replay_file(it->second, &lo.replay, &perr)) {
      err << "loadgen: --replay: " << perr << "\n";
      return 2;
    }
  }
  const auto from = opt_double(p, "--from");
  const auto to = opt_double(p, "--to");
  const double step = opt_double(p, "--step").value_or(5.0);
  if (lo.replay.empty() && (!from || !to || step <= 0)) {
    err << "loadgen: --from W --to W [--step W] (or --replay FILE) "
           "required\n";
    return 2;
  }
  const auto trace = robust::load_trace_checked(p.positional[0]);
  if (!trace.ok()) {
    err << "error: " << trace.status().message() << "\n";
    return 1;
  }
  if (lo.replay.empty())
    lo.caps = caps_from_range(*from, *to, step, trace->num_ranks());
  {
    std::ostringstream ts;
    dag::write_trace(ts, *trace);
    lo.trace_text = ts.str();
  }
  if (const auto ms = opt_double(p, "--deadline-ms")) lo.deadline_ms = *ms;
  if (const auto s = opt_double(p, "--timeout-s")) lo.wall_timeout_s = *s;
  if (const auto it = p.options.find("--inject"); it != p.options.end()) {
    if (it->second != "net-drop" && it->second != "net-stall" &&
        it->second != "slow-read" && it->second != "oversize") {
      err << "loadgen: --inject wants net-drop|net-stall|slow-read|"
             "oversize\n";
      return 2;
    }
    lo.inject = it->second;
  }
  if (const auto s = opt_double(p, "--inject-hold-s")) lo.inject_hold_s = *s;

  const serve::LoadgenReport report = serve::run_loadgen(lo, err);
  if (p.flags.count("--json") > 0) {
    out << report.to_json() << "\n";
  } else {
    util::Table t({"metric", "value"});
    t.add_row({"requests", std::to_string(report.requests)});
    t.add_row({"ok", std::to_string(report.ok)});
    t.add_row({"overloaded", std::to_string(report.overloaded)});
    t.add_row({"errors", std::to_string(report.errors)});
    t.add_row({"p50_ms", util::Table::num(report.p50_ms, 2)});
    t.add_row({"p99_ms", util::Table::num(report.p99_ms, 2)});
    t.add_row({"throughput_rps", util::Table::num(report.throughput_rps, 2)});
    out << t.to_string();
  }
  // Shed load is the daemon working as designed; only a run where
  // nothing was served is a failure.
  return report.ok == 0 ? 1 : 0;
}

/// Runs one method and returns the simulation result; `lp` out-param is
/// set for the LP method so callers can report the bound.
sim::SimResult simulate_method(const dag::TaskGraph& g,
                               const std::string& method, double socket_cap,
                               const machine::ClusterSpec& cluster) {
  sim::EngineOptions eo;
  eo.cluster = cluster;
  eo.idle_power = model().idle_power();
  if (method == "static") {
    runtime::StaticPolicy p(model(), socket_cap);
    return sim::simulate(g, p, eo);
  }
  if (method == "conductor") {
    runtime::ConductorPolicy p(model(), g.num_ranks(),
                               socket_cap * g.num_ranks());
    return sim::simulate(g, p, eo);
  }
  if (method == "lp") {
    const auto lp = core::solve_windowed_lp(
        g, model(), cluster, {.power_cap = socket_cap * g.num_ranks()});
    if (!lp.optimal()) throw std::runtime_error("LP infeasible at this cap");
    sim::ReplayOptions ro;
    ro.engine = eo;
    return sim::replay_schedule(g, lp.schedule, lp.frontiers, ro,
                                &lp.vertex_time);
  }
  throw std::runtime_error("unknown method '" + method +
                           "' (want static|conductor|lp)");
}

int cmd_timeline(const ParsedArgs& p, std::ostream& out, std::ostream& err) {
  if (p.positional.size() != 1) {
    err << "timeline: expected one trace file\n";
    return 2;
  }
  const auto socket_cap = opt_double(p, "--socket-cap");
  if (!socket_cap) {
    err << "timeline: --socket-cap W is required\n";
    return 2;
  }
  const std::string method = p.options.count("--method")
                                 ? p.options.at("--method")
                                 : std::string("lp");
  const int width = opt_int(p, "--width", 100);
  const dag::TaskGraph g = dag::load_trace(p.positional[0]);
  const machine::ClusterSpec cluster;
  const sim::SimResult res = simulate_method(g, method, *socket_cap, cluster);
  out << method << " schedule, " << res.makespan << " s, peak "
      << res.peak_power << " W\n";
  out << sim::ascii_timeline(g, res, width);
  return 0;
}

int cmd_export(const ParsedArgs& p, std::ostream& out, std::ostream& err) {
  if (p.positional.size() != 1) {
    err << "export: expected one trace file\n";
    return 2;
  }
  const auto socket_cap = opt_double(p, "--socket-cap");
  auto it = p.options.find("-o");
  if (!socket_cap || it == p.options.end()) {
    err << "export: --socket-cap W and -o PREFIX are required\n";
    return 2;
  }
  const dag::TaskGraph g = dag::load_trace(p.positional[0]);
  const machine::ClusterSpec cluster;
  const sim::SimResult res = simulate_method(g, "lp", *socket_cap, cluster);
  const std::string gantt_path = it->second + ".gantt.csv";
  const std::string power_path = it->second + ".power.csv";
  std::ofstream gantt(gantt_path), power(power_path);
  if (!gantt || !power) {
    err << "export: cannot open output files\n";
    return 1;
  }
  gantt << sim::gantt_csv(g, res);
  power << sim::power_trace_csv(res);
  out << "wrote " << gantt_path << " and " << power_path << "\n";
  return 0;
}

int cmd_replay(const ParsedArgs& p, std::ostream& out, std::ostream& err) {
  if (p.positional.size() != 2) {
    err << "replay: expected TRACE and SCHEDULE files\n";
    return 2;
  }
  const dag::TaskGraph g = dag::load_trace(p.positional[0]);
  const core::SavedSchedule saved = core::load_schedule(p.positional[1]);
  if (saved.schedule.num_edges() != g.num_edges()) {
    err << "replay: schedule does not match trace (edge counts differ)\n";
    return 1;
  }
  sim::ReplayOptions ro;
  ro.engine.cluster = machine::ClusterSpec{};
  ro.engine.idle_power = model().idle_power();
  const sim::SimResult res = sim::replay_schedule(
      g, saved.schedule, saved.frontiers, ro, &saved.vertex_time);
  util::Table t({"metric", "value"});
  t.add_row({"scheduled makespan (s)", util::Table::num(saved.makespan, 4)});
  t.add_row({"replayed makespan (s)", util::Table::num(res.makespan, 4)});
  t.add_row({"peak power (W)", util::Table::num(res.peak_power, 2)});
  t.add_row({"job cap (W)", util::Table::num(saved.job_cap_watts, 1)});
  t.add_row({"RAPL 10ms max avg (W)",
             util::Table::num(sim::max_windowed_power(res, 0.01), 2)});
  t.add_row({"verdict", sim::max_windowed_power(res, 0.01) <=
                                saved.job_cap_watts * 1.001
                            ? "valid"
                            : "VIOLATED"});
  out << t.to_string();
  return 0;
}

int cmd_analyze(const ParsedArgs& p, std::ostream& out, std::ostream& err) {
  if (p.positional.size() != 1) {
    err << "analyze: expected one trace file\n";
    return 2;
  }
  const dag::TaskGraph g = dag::load_trace(p.positional[0]);
  const dag::TraceAnalysis a = dag::analyze(g);
  util::Table t({"metric", "value"});
  t.add_row({"ranks", std::to_string(a.ranks)});
  t.add_row({"iterations", std::to_string(a.iterations)});
  t.add_row({"tasks / messages / collectives",
             std::to_string(a.tasks) + " / " + std::to_string(a.messages) +
                 " / " + std::to_string(a.collectives)});
  t.add_row({"load imbalance (max/mean - 1)",
             util::Table::pct(a.imbalance, 1)});
  t.add_row({"heaviest/lightest rank ratio",
             util::Table::num(a.max_min_ratio, 2)});
  t.add_row({"p2p share of coupling points",
             util::Table::pct(a.p2p_fraction, 1)});
  t.add_row({"bytes per compute-second",
             util::Table::num(a.bytes_per_work_second, 0)});
  t.add_row({"mean task length (s)",
             util::Table::num(a.mean_task_seconds, 4)});
  t.add_row({"critical path (nominal s)",
             util::Table::num(a.critical_path_seconds, 2)});
  int dominant = 0;
  for (int r = 1; r < a.ranks; ++r) {
    if (a.critical_path_share[r] > a.critical_path_share[dominant]) {
      dominant = r;
    }
  }
  t.add_row({"critical-path owner",
             "rank " + std::to_string(dominant) + " (" +
                 util::Table::pct(a.critical_path_share[dominant], 0) +
                 ")"});
  out << t.to_string();
  out << "\nper-rank work share:\n";
  util::Table l({"rank", "work_s", "share"});
  for (const dag::RankLoad& r : a.load) {
    l.add_row({std::to_string(r.rank), util::Table::num(r.work_seconds, 2),
               util::Table::pct(r.share, 1)});
  }
  out << l.to_string();
  out << "\nreading: imbalance >~30% means non-uniform power allocation "
         "(Conductor, LP)\nhas big wins; near-zero imbalance means Static "
         "is already close to optimal.\n";
  return 0;
}

int cmd_energy(const ParsedArgs& p, std::ostream& out, std::ostream& err) {
  if (p.positional.size() != 1) {
    err << "energy: expected one trace file\n";
    return 2;
  }
  const auto allowance_pct = opt_double(p, "--allowance");
  if (!allowance_pct || *allowance_pct < 0) {
    err << "energy: --allowance PCT (>= 0) is required\n";
    return 2;
  }
  const dag::TaskGraph g = dag::load_trace(p.positional[0]);
  const machine::ClusterSpec cluster;
  const auto socket_cap = opt_double(p, "--socket-cap");
  const double cap =
      socket_cap ? *socket_cap * g.num_ranks() : lp::kInfinity;

  const auto fast = core::solve_windowed_lp(g, model(), cluster,
                                            {.power_cap = lp::kInfinity});
  const auto res = core::solve_windowed_energy_lp(
      g, model(), cluster, *allowance_pct / 100.0, cap);
  if (!fast.optimal() || !res.optimal()) {
    err << "infeasible (cap too tight for the allowance?)\n";
    return 1;
  }
  util::Table t({"metric", "value"});
  t.add_row({"makespan-optimal time (s)", util::Table::num(fast.makespan, 3)});
  t.add_row({"makespan-optimal energy (kJ)",
             util::Table::num(fast.energy_joules / 1e3, 3)});
  t.add_row({"allowed slowdown", util::Table::pct(*allowance_pct / 100.0, 1)});
  t.add_row({"energy-optimal time (s)", util::Table::num(res.makespan, 3)});
  t.add_row({"energy-optimal energy (kJ)",
             util::Table::num(res.energy_joules / 1e3, 3)});
  t.add_row({"energy saved",
             util::Table::pct(1.0 - res.energy_joules / fast.energy_joules,
                              1)});
  out << t.to_string();
  return 0;
}

int cmd_partition(const ParsedArgs& p, std::ostream& out,
                  std::ostream& err) {
  if (p.positional.empty()) {
    err << "partition: expected at least one trace file\n";
    return 2;
  }
  const auto machine_watts = opt_double(p, "--machine-watts");
  if (!machine_watts) {
    err << "partition: --machine-watts W is required\n";
    return 2;
  }
  const machine::ClusterSpec cluster;
  std::vector<core::PowerProfile> profiles;
  std::vector<dag::TaskGraph> graphs;
  for (const std::string& path : p.positional) {
    graphs.push_back(dag::load_trace(path));
  }
  for (const dag::TaskGraph& g : graphs) {
    std::vector<double> sweep;
    for (double w = 24.0; w <= 90.0; w += 6.0) {
      sweep.push_back(w * g.num_ranks());
    }
    profiles.push_back(core::profile_job(g, model(), cluster, sweep));
  }
  const auto r = core::partition_power(profiles, *machine_watts);
  if (!r.feasible) {
    err << "infeasible: the jobs need at least ";
    double need = 0;
    for (const auto& prof : profiles) need += prof.min_cap();
    err << need << " W together\n";
    return 1;
  }
  util::Table t({"job", "alloc_w", "predicted_s"});
  for (std::size_t j = 0; j < profiles.size(); ++j) {
    t.add_row({p.positional[j], util::Table::num(r.caps[j], 1),
               util::Table::num(r.times[j], 3)});
  }
  out << t.to_string();
  out << "machine makespan: " << r.makespan << " s\n";
  return 0;
}

int cmd_dot(const ParsedArgs& p, std::ostream& out, std::ostream& err) {
  if (p.positional.size() != 1) {
    err << "dot: expected one trace file\n";
    return 2;
  }
  const dag::TaskGraph g = dag::load_trace(p.positional[0]);
  if (auto it = p.options.find("-o"); it != p.options.end()) {
    std::ofstream f(it->second);
    if (!f) {
      err << "dot: cannot open " << it->second << "\n";
      return 1;
    }
    dag::write_dot(f, g);
    out << "wrote " << it->second << "\n";
  } else {
    dag::write_dot(out, g);
  }
  return 0;
}

}  // namespace

int run(const std::vector<std::string>& args, std::ostream& out,
        std::ostream& err) {
  try {
    if (args.empty() || args[0] == "--help" || args[0] == "help") {
      out << kUsage;
      return args.empty() ? 2 : 0;
    }
    const std::string& cmd = args[0];
    if (cmd == "trace") {
      return cmd_trace(parse(args, 1,
                             {"-o", "--ranks", "--iterations", "--seed"}, {}),
                       out, err);
    }
    if (cmd == "info") {
      return cmd_info(parse(args, 1, {}, {}), out, err);
    }
    if (cmd == "lint") {
      return cmd_lint(parse(args, 1, {}, {}), out, err);
    }
    if (cmd == "bound") {
      return cmd_bound(parse(args, 1,
                             {"--socket-cap", "-o", "--report",
                              "--deadline-ms"},
                             {"--discrete", "--no-lint"}),
                       out, err);
    }
    if (cmd == "replay") {
      return cmd_replay(parse(args, 1, {}, {}), out, err);
    }
    if (cmd == "compare") {
      return cmd_compare(parse(args, 1, {"--socket-cap"}, {}), out, err);
    }
    if (cmd == "sweep") {
      return cmd_sweep(parse(args, 1,
                             {"--from", "--to", "--step", "--report",
                              "--inject-fail", "--journal",
                              "--deadline-ms", "--cap-deadline-ms",
                              "--workers", "--worker-mem-mb",
                              "--worker-cpu-s", "--remote",
                              "--remote-timeout-ms",
                              "--remote-heartbeat-ms"},
                             {"--resume", "--no-lint"}),
                       out, err);
    }
    if (cmd == "serve") {
      return cmd_serve(
          parse(args, 1,
                {"--listen", "--port-file", "--state-dir", "--max-queue",
                 "--max-active", "--workers", "--worker-mem-mb",
                 "--worker-cpu-s", "--remote", "--remote-timeout-ms",
                 "--remote-heartbeat-ms", "--cap-deadline-ms",
                 "--default-deadline-ms", "--max-deadline-ms",
                 "--io-timeout-s", "--idle-timeout-s", "--max-requests",
                 "--inject-fail", "--inject-attempts", "--standby-of",
                 "--promote-after-ms", "--repl-heartbeat-ms"},
                {"--resume"}),
          out, err);
    }
    if (cmd == "promote") {
      return cmd_promote(parse(args, 1, {"--server", "--timeout-s"}, {}),
                         out, err);
    }
    if (cmd == "journal") {
      return cmd_journal(
          parse(args, 1, {},
                {"--no-certificate", "--crash-before-rename"}),
          out, err);
    }
    if (cmd == "query") {
      return cmd_query(
          parse(args, 1,
                {"--server", "--endpoints", "--from", "--to", "--step",
                 "--deadline-ms", "--timeout-s", "--id", "--report"},
                {}),
          out, err);
    }
    if (cmd == "loadgen") {
      return cmd_loadgen(
          parse(args, 1,
                {"--server", "--endpoints", "--clients", "--requests",
                 "--from", "--to", "--step", "--deadline-ms", "--replay",
                 "--timeout-s", "--inject", "--inject-hold-s"},
                {"--json"}),
          out, err);
    }
    if (cmd == "timeline") {
      return cmd_timeline(
          parse(args, 1, {"--socket-cap", "--method", "--width"}, {}), out,
          err);
    }
    if (cmd == "export") {
      return cmd_export(parse(args, 1, {"--socket-cap", "-o"}, {}), out, err);
    }
    if (cmd == "analyze") {
      return cmd_analyze(parse(args, 1, {}, {}), out, err);
    }
    if (cmd == "energy") {
      return cmd_energy(parse(args, 1, {"--allowance", "--socket-cap"}, {}),
                        out, err);
    }
    if (cmd == "partition") {
      return cmd_partition(parse(args, 1, {"--machine-watts"}, {}), out,
                           err);
    }
    if (cmd == "dot") {
      return cmd_dot(parse(args, 1, {"-o"}, {}), out, err);
    }
    err << "unknown command '" << cmd << "'\n" << kUsage;
    return 2;
  } catch (const std::exception& e) {
    err << "error: " << e.what() << "\n";
    return 1;
  }
}

}  // namespace powerlim::cli
