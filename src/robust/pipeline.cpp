#include "robust/pipeline.h"

#include <sys/resource.h>

#include <cmath>
#include <cstddef>
#include <memory>
#include <optional>
#include <sstream>
#include <utility>

#include "check/certificate.h"
#include "core/pareto.h"
#include "dag/trace_io.h"
#include "robust/fault_injection.h"
#include "util/socket_io.h"

namespace powerlim::robust {

Result<dag::TaskGraph> load_trace_checked(const std::string& path) {
  try {
    return dag::load_trace(path);
  } catch (const dag::TraceParseError& e) {
    return Status(StatusCode::kBadInput, e.what());
  } catch (const std::exception& e) {
    return Status(StatusCode::kBadInput,
                  "cannot load trace '" + path + "': " + e.what());
  }
}

Result<core::SavedSchedule> load_schedule_checked(const std::string& path,
                                                  const dag::TaskGraph* graph) {
  try {
    core::SavedSchedule saved = core::load_schedule(path);
    if (graph != nullptr &&
        saved.schedule.num_edges() != graph->num_edges()) {
      return Status(StatusCode::kBadInput,
                    "schedule '" + path + "' does not match trace (" +
                        std::to_string(saved.schedule.num_edges()) +
                        " edges vs " + std::to_string(graph->num_edges()) +
                        ")");
    }
    return saved;
  } catch (const std::exception& e) {
    return Status(StatusCode::kBadInput,
                  "cannot load schedule '" + path + "': " + e.what());
  }
}

namespace {

JournalEntry entry_from_report(const RunReport& rep) {
  JournalEntry e;
  e.job_cap_watts = rep.job_cap_watts;
  e.verdict = rep.verdict;
  e.degraded = rep.degraded;
  e.bound_seconds = rep.bound_seconds;
  e.fallback = rep.fallback;
  e.report_json = rep.to_json();
  return e;
}

long current_peak_rss_kb() {
  struct rusage ru {};
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0;
  return static_cast<long>(ru.ru_maxrss);
}

/// The Byzantine gate: a remote kOk result is only as trustworthy as the
/// solution artifact it shipped. Re-verify the artifact locally with the
/// exact certificate checker against *our* trace and machine model - a
/// peer can waste an attempt, never poison the journal. Degraded /
/// infeasible verdicts are accepted upstream without a gate call (their
/// conservative bounds carry nothing worth forging).
RemoteResultGate make_certificate_gate(const dag::TaskGraph& graph,
                                       const machine::PowerModel& model,
                                       const machine::ClusterSpec& cluster,
                                       const ResilientSweepOptions& options) {
  if (!options.driver.verify_certificate) return nullptr;
  auto checker = std::make_shared<check::CertificateChecker>(
      graph, model, cluster, options.driver.certificate);
  return [checker, &graph, &model](const JournalEntry& e,
                                   const std::string& solution_text)
             -> Status {
    if (e.verdict != StatusCode::kOk) return Status::Ok();
    if (solution_text.empty()) {
      return Status(StatusCode::kCertificateFailed,
                    "remote kOk result shipped no solution artifact");
    }
    std::optional<core::SavedSchedule> saved;
    try {
      std::istringstream in(solution_text);
      saved.emplace(core::read_schedule(in));
    } catch (const std::exception& ex) {
      return Status(StatusCode::kWireMalformed,
                    std::string("unreadable solution artifact: ") + ex.what());
    }
    if (std::abs(saved->job_cap_watts - e.job_cap_watts) > 1e-9) {
      return Status(StatusCode::kCertificateFailed,
                    "solution artifact solves a different cap than claimed");
    }
    const double scale = std::max(1.0, std::abs(e.bound_seconds));
    if (std::abs(saved->makespan - e.bound_seconds) > 1e-9 * scale) {
      return Status(StatusCode::kCertificateFailed,
                    "solution artifact does not support the reported bound");
    }
    core::WindowedLpResult res;
    res.status = lp::SolveStatus::kOptimal;
    res.makespan = saved->makespan;
    res.schedule = std::move(saved->schedule);
    res.vertex_time = std::move(saved->vertex_time);
    // The artifact only round-trips the frontier points its mixture
    // references; rebuild the full frontiers from OUR trace and machine
    // model (same derivation as the formulation). The checker then
    // re-verifies the peer's mixture against trusted local data - a
    // forged duration/power inside the artifact is simply ignored.
    res.frontiers.resize(graph.num_edges());
    for (const dag::Edge& edge : graph.edges()) {
      if (!edge.is_task()) continue;
      res.frontiers[edge.id] =
          core::convex_frontier(model.enumerate(edge.work, edge.rank));
    }
    // No duals cross the wire, so weak duality is skipped; exact primal
    // feasibility alone already rejects any bound below the true
    // optimum (the schedule cannot finish that fast).
    const check::CertificateVerdict v =
        checker->verify(res, e.job_cap_watts, e.job_cap_watts);
    if (!v.checked) {
      return Status(StatusCode::kCertificateFailed,
                    "certificate gate could not verify the artifact: " +
                        v.detail);
    }
    if (!v.ok) {
      return Status(StatusCode::kCertificateFailed,
                    "certificate gate rejected the remote solution: " +
                        v.detail);
    }
    return Status::Ok();
  };
}

/// The remote half of the pool: parsed endpoints, the `solve` request
/// every remote attempt sends (the trace and the cap deadline - a remote
/// solve runs the default driver under that deadline), and the
/// certificate gate.
Status remote_pool_options(const dag::TaskGraph& graph,
                           const machine::PowerModel& model,
                           const machine::ClusterSpec& cluster,
                           const ResilientSweepOptions& options,
                           RemoteWorkerOptions* remote) {
  for (const std::string& text : options.remotes) {
    util::Endpoint ep;
    if (!util::parse_endpoint(text, &ep) || ep.port == 0) {
      return Status(StatusCode::kBadInput,
                    "bad remote endpoint '" + text +
                        "' (want host:port with a nonzero port)");
    }
    remote->remotes.push_back(ep);
  }
  std::ostringstream trace;
  dag::write_trace(trace, graph);
  remote->request.kind = "solve";
  remote->request.deadline_ms = options.driver.cap_deadline_ms;
  remote->request.trace_text = trace.str();
  remote->gate = make_certificate_gate(graph, model, cluster, options);
  if (options.remote_heartbeat_ms > 0.0) {
    remote->heartbeat_timeout_ms = options.remote_heartbeat_ms;
  }
  if (options.remote_timeout_ms > 0.0) {
    remote->job_timeout_ms = options.remote_timeout_ms;
  } else if (options.driver.cap_deadline_ms > 0.0) {
    // The remote end enforces the cap deadline itself; this ceiling only
    // catches a peer that silently keeps heartbeating past it.
    remote->job_timeout_ms = options.driver.cap_deadline_ms + 5000.0;
  }
  return Status::Ok();
}

/// The journal record a resumed sweep may reuse for `cap`, or nullptr.
/// An untrusted record (kOk without a passed certificate) falls through
/// to a fresh solve. The journal keeps the old record (a re-append would
/// be dropped as a duplicate), so an untrusted cap is re-solved on every
/// resume - deliberately: trust is a property of the record, not of how
/// often it has been replayed.
const JournalEntry* resumable_record(const std::optional<SweepJournal>& journal,
                                     const ResilientSweepOptions& options,
                                     double cap) {
  if (!journal || !options.resume) return nullptr;
  const JournalEntry* e = journal->find(cap);
  if (e == nullptr ||
      !journal_entry_trusted(*e, options.driver.verify_certificate)) {
    return nullptr;
  }
  return e;
}

/// The pooled path (workers > 1 or remotes): every cap the journal does
/// not already hold is solved in an isolated worker. Results stream
/// into the journal in completion order (each cap durable the moment it
/// lands); rows are still assembled in request order.
Status pooled_sweep(const dag::TaskGraph& graph,
                    const machine::PowerModel& model,
                    const machine::ClusterSpec& cluster,
                    const std::vector<double>& job_caps,
                    const ResilientSweepOptions& options,
                    RemoteWorkerOptions remote,
                    std::optional<SweepJournal>& journal,
                    ResilientSweepResult* out) {
  std::vector<std::optional<SweepRow>> slots(job_caps.size());
  std::vector<std::size_t> pending;
  for (std::size_t i = 0; i < job_caps.size(); ++i) {
    const JournalEntry* e = resumable_record(journal, options, job_caps[i]);
    if (e != nullptr) {
      slots[i] = SweepRow{*e, true};
      ++out->resumed;
      continue;
    }
    pending.push_back(i);
  }

  std::vector<WorkerTaskSpec> tasks;
  tasks.reserve(pending.size());
  for (std::size_t i : pending) {
    const double cap = job_caps[i];
    WorkerTaskSpec spec;
    spec.job_cap_watts = cap;
    spec.run = [&graph, &model, &cluster, &options, cap](int attempt) {
      maybe_execute_worker_fault(cap, attempt);
      const SolveDriver driver(graph, model, cluster, options.driver);
      return isolated_worker_entry(driver.solve(cap).report, attempt);
    };
    tasks.push_back(std::move(spec));
  }

  WorkerPoolOptions pool;
  pool.workers = options.workers;
  pool.limits.mem_mb = options.worker_mem_mb;
  pool.limits.cpu_seconds = options.worker_cpu_s;
  if (options.driver.cap_deadline_ms > 0.0) {
    // Per-spawn wall budget: the cap deadline plus grace for the
    // fallback simulation and result serialization. Catches workers
    // wedged where the pivot-granularity deadline cannot reach.
    pool.limits.wall_seconds = options.driver.cap_deadline_ms / 1000.0 + 2.0;
  }
  pool.remote = std::move(remote);

  Status journal_error;  // first append failure, surfaced after the pool
  bool dropped_cancelled = false;
  const auto on_result = [&](const WorkerTaskResult& r, std::size_t task_idx) {
    const std::size_t cap_idx = pending[task_idx];
    JournalEntry entry;
    if (r.outcome == WorkerOutcome::kOk) {
      // A worker that reports kCancelled (it inherits the parent's
      // SIGINT handling across fork) did not really settle its cap:
      // drop the result so a resumed run re-solves it for real.
      if (r.entry.verdict == StatusCode::kCancelled) {
        dropped_cancelled = true;
        return;
      }
      entry = r.entry;
    } else if (r.outcome == WorkerOutcome::kSkipped) {
      return;
    } else {
      WorkerFailure failure;
      failure.outcome = status_code_for(r.outcome);
      failure.detail = r.detail;
      failure.spawns = r.spawns;
      failure.wall_ms = r.wall_ms;
      failure.peak_rss_kb = r.peak_rss_kb;
      entry = degraded_entry_for_failure(graph, model, cluster, options.driver,
                                         job_caps[cap_idx], failure);
    }
    if (!pool.remote.remotes.empty()) {
      entry.report_json = patch_transport_json(entry.report_json, r.transport);
    }
    if (journal && journal_error.ok()) {
      const Status st = journal->append(entry);
      if (!st.ok()) journal_error = st;
    }
    SweepRow row{std::move(entry), false};
    if (options.on_row) options.on_row(row);
    slots[cap_idx] = std::move(row);
    ++out->solved;
  };

  const WorkerPoolResult result =
      run_worker_pool(tasks, pool, options.deadline, on_result);
  out->worker_stats = result.stats;
  if (!journal_error.ok()) return journal_error;
  if (result.interrupted) {
    out->interrupted = true;
    out->stop = result.stop;
  } else if (dropped_cancelled) {
    out->interrupted = true;
    out->stop = util::StopReason::kCancelled;
  }

  for (auto& slot : slots) {
    if (slot) out->rows.push_back(std::move(*slot));
  }
  return Status::Ok();
}

}  // namespace

JournalEntry isolated_worker_entry(RunReport report, int attempt) {
  report.worker.isolated = true;
  report.worker.spawns = attempt + 1;
  report.worker.retries = attempt;
  report.worker.peak_rss_kb = current_peak_rss_kb();
  return entry_from_report(report);
}

Result<ResilientSweepResult> resilient_sweep(
    const dag::TaskGraph& graph, const machine::PowerModel& model,
    const machine::ClusterSpec& cluster, const std::vector<double>& job_caps,
    const ResilientSweepOptions& options) {
  // Endpoints are checked before the journal is opened, so a bad one
  // fails the sweep without touching (or recovering) the journal.
  RemoteWorkerOptions remote;
  if (!options.remotes.empty()) {
    const Status st =
        remote_pool_options(graph, model, cluster, options, &remote);
    if (!st.ok()) return st;
  }

  ResilientSweepResult out;

  std::optional<SweepJournal> journal;
  if (!options.journal_path.empty()) {
    Result<SweepJournal> opened = SweepJournal::open(options.journal_path);
    if (!opened.ok()) return opened.status();
    journal.emplace(std::move(opened).value());
    out.recovery = journal->recovery();
  }

  if (options.workers > 1 || !options.remotes.empty()) {
    const Status st = pooled_sweep(graph, model, cluster, job_caps, options,
                                   std::move(remote), journal, &out);
    if (!st.ok()) return st;
    return out;
  }

  SolveDriverOptions driver_opt = options.driver;
  driver_opt.deadline =
      util::Deadline::sooner(driver_opt.deadline, options.deadline);
  const SolveDriver driver(graph, model, cluster, driver_opt);

  for (double cap : job_caps) {
    if (const JournalEntry* e = resumable_record(journal, options, cap)) {
      out.rows.push_back(SweepRow{*e, true});
      ++out.resumed;
      continue;
    }

    util::StopReason stop = options.deadline.stop_reason();
    if (stop != util::StopReason::kNone) {
      out.interrupted = true;
      out.stop = stop;
      break;
    }

    const SolveOutcome outcome = driver.solve(cap);

    // A cancelled cap did not complete: leave it out of the journal and
    // the rows so the resumed run re-solves it for real.
    if (outcome.report.verdict == StatusCode::kCancelled) {
      out.interrupted = true;
      out.stop = util::StopReason::kCancelled;
      break;
    }
    // Likewise a deadline verdict caused by the *sweep* budget (not the
    // per-cap one) is an interruption artifact, not the cap's true
    // outcome - re-running with a fresh budget should retry it.
    stop = options.deadline.stop_reason();
    if (stop != util::StopReason::kNone &&
        outcome.report.verdict == StatusCode::kDeadlineExceeded) {
      out.interrupted = true;
      out.stop = stop;
      break;
    }

    SweepRow row{entry_from_report(outcome.report), false};
    if (journal) {
      const Status st = journal->append(row);
      if (!st.ok()) return st;
    }
    if (options.on_row) options.on_row(row);
    out.rows.push_back(std::move(row));
    ++out.solved;
  }

  return out;
}

JournalEntry degraded_entry_for_failure(
    const dag::TaskGraph& graph, const machine::PowerModel& model,
    const machine::ClusterSpec& cluster, const SolveDriverOptions& driver_opt,
    double cap, const WorkerFailure& failure) {
  // A cap whose isolated worker died (or starved/overran its budgets)
  // gets the same treatment as an exhausted ladder: classify the
  // failure, then substitute the always-simulable Static-policy bound.
  // The supervisor synthesizes the report because the child left no
  // usable one behind.
  const int ranks = graph.num_ranks();
  RunReport rep;
  rep.job_cap_watts = cap;
  rep.socket_cap_watts = ranks > 0 ? cap / ranks : 0.0;
  rep.verdict = failure.outcome;
  rep.detail = "isolated worker failed after " +
               std::to_string(failure.spawns) +
               " spawn(s); last: " + failure.detail;
  rep.wall_ms = failure.wall_ms;
  rep.ladder = ladder_echo(driver_opt);
  echo_fault_plan(rep, /*worker_died=*/true);
  rep.worker.isolated = true;
  rep.worker.spawns = failure.spawns;
  rep.worker.retries = failure.spawns > 0 ? failure.spawns - 1 : 0;
  rep.worker.peak_rss_kb = failure.peak_rss_kb;
  SolveAttempt att;
  att.rung = "worker";
  att.outcome = rep.verdict;
  att.detail = failure.detail;
  rep.attempts.push_back(std::move(att));
  static_fallback(graph, model, cluster, rep);
  return entry_from_report(rep);
}

}  // namespace powerlim::robust
