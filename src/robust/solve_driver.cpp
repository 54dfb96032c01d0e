#include "robust/solve_driver.h"

#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <iomanip>
#include <iterator>
#include <sstream>
#include <utility>

#include "check/lint.h"
#include "robust/fault_injection.h"
#include "runtime/static_policy.h"
#include "sim/engine.h"

namespace powerlim::robust {

namespace {

/// Ladder order: the two rungs differ only in the pricing rule.
constexpr const char* kRungs[] = {"dantzig", "bland"};

/// The detail of an attempt the solver ended without an optimum: its
/// status and, when one window failed, which.
std::string solve_failure_detail(const core::WindowedLpResult& res) {
  std::string detail = lp::to_string(res.status);
  if (res.failed_window >= 0) {
    detail += " in window " + std::to_string(res.failed_window);
  }
  return detail;
}

bool retryable(StatusCode code) {
  switch (code) {
    case StatusCode::kSolverNumerical:
    case StatusCode::kIterationLimit:
    case StatusCode::kSolverUnbounded:
    case StatusCode::kReplayCapViolation:
    case StatusCode::kCertificateFailed:
    case StatusCode::kInternal:
      return true;
    default:
      return false;
  }
}

/// Writes the elapsed milliseconds into *out when it leaves scope, so
/// every return path of solve() stamps RunReport::wall_ms.
class WallTimer {
 public:
  explicit WallTimer(double* out) : out_(out) {}
  ~WallTimer() {
    *out_ = std::chrono::duration<double, std::milli>(
                std::chrono::steady_clock::now() - start_)
                .count();
  }
  WallTimer(const WallTimer&) = delete;
  WallTimer& operator=(const WallTimer&) = delete;

 private:
  double* out_;
  std::chrono::steady_clock::time_point start_ =
      std::chrono::steady_clock::now();
};

// --- minimal JSON emission (no external deps) ---

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string json_num(double v) {
  if (!std::isfinite(v)) return "null";
  std::ostringstream os;
  os << std::setprecision(12) << v;
  return os.str();
}

/// One ladder attempt's `result` entry.
void append_attempt(std::ostringstream& os, const SolveAttempt& a) {
  os << "{\"rung\":\"" << json_escape(a.rung) << "\","
     << "\"outcome\":\"" << to_string(a.outcome) << "\","
     << "\"injected\":" << (a.injected ? "true" : "false") << ","
     << "\"bland_engaged\":" << (a.bland_engaged ? "true" : "false") << ","
     << "\"failed_window\":" << a.failed_window << ","
     << "\"detail\":\"" << json_escape(a.detail) << "\"}";
}

/// The same attempt's `telemetry` entry: its simplex path and residual.
void append_attempt_telemetry(std::ostringstream& os, const SolveAttempt& a) {
  os << "{\"iterations\":" << a.iterations << ","
     << "\"degenerate_pivots\":" << a.degenerate_pivots << ","
     << "\"refactor_count\":" << a.refactor_count << ","
     << "\"primal_infeasibility\":" << json_num(a.primal_infeasibility) << ","
     << "\"eta_nonzeros\":" << a.eta_nonzeros << ","
     << "\"lu_fill_ratio\":" << json_num(a.lu_fill_ratio) << "}";
}

/// The schema-5 transport block, emitted with a leading comma (shared by
/// to_json and patch_transport_json so the spliced shape cannot drift).
void append_transport(std::ostream& os, const TransportTelemetry& t) {
  os << ",\"transport\":{\"remote\":" << (t.remote ? "true" : "false")
     << ",\"endpoint\":\"" << json_escape(t.endpoint) << "\""
     << ",\"retries\":" << t.retries
     << ",\"backoff_ms\":" << json_num(t.backoff_ms)
     << ",\"heartbeat_misses\":" << t.heartbeat_misses << "}";
}

}  // namespace

std::string RunReport::to_json() const {
  std::ostringstream os;
  os << "{\"schema_version\":" << schema_version << ",\"result\":{"
     << "\"job_cap_watts\":" << json_num(job_cap_watts) << ","
     << "\"socket_cap_watts\":" << json_num(socket_cap_watts) << ","
     << "\"verdict\":\"" << robust::to_string(verdict) << "\","
     << "\"detail\":\"" << json_escape(detail) << "\","
     << "\"degraded\":" << (degraded ? "true" : "false") << ","
     << "\"fallback\":\"" << json_escape(fallback) << "\","
     << "\"bound_seconds\":" << json_num(bound_seconds) << ","
     << "\"energy_joules\":" << json_num(energy_joules) << ","
     << "\"min_feasible_power_watts\":" << json_num(min_feasible_power_watts)
     << ",\"fault\":{\"active\":" << (fault_active ? "true" : "false")
     << ",\"seed\":" << fault_seed << "}"
     << ",\"ladder\":{\"cap_deadline_ms\":" << json_num(ladder.cap_deadline_ms)
     << ",\"cancellable\":" << (ladder.cancellable ? "true" : "false") << "}"
     << ",\"attempts\":[";
  for (std::size_t i = 0; i < attempts.size(); ++i) {
    if (i) os << ",";
    append_attempt(os, attempts[i]);
  }
  os << "],\"replay\":{\"checked\":" << (replay.checked ? "true" : "false");
  if (replay.checked) {
    os << ",\"ok\":" << (replay.check.ok ? "true" : "false") << ","
       << "\"cap_watts\":" << json_num(replay.check.cap_watts) << ","
       << "\"peak_power_watts\":" << json_num(replay.check.peak_power) << ","
       << "\"max_windowed_power_watts\":"
       << json_num(replay.check.max_windowed_power)
       << ",\"violation_seconds\":"
       << json_num(replay.check.violation_seconds);
  }
  os << "},\"certificate\":{\"checked\":"
     << (certificate.checked ? "true" : "false");
  if (certificate.checked) {
    os << ",\"ok\":" << (certificate.ok ? "true" : "false")
       << ",\"duality_checked\":"
       << (certificate.duality_checked ? "true" : "false")
       << ",\"max_violation\":" << json_num(certificate.max_violation)
       << ",\"detail\":\"" << json_escape(certificate.detail) << "\"";
  }
  os << "},\"lint\":{\"checked\":" << (lint.checked ? "true" : "false")
     << ",\"errors\":" << lint.errors << ",\"warnings\":" << lint.warnings
     << "}}";

  // Telemetry: how and where the cap was solved. Its attempts, replay
  // and certificate members hold the rest of the like-named result
  // blocks.
  os << ",\"telemetry\":{\"wall_ms\":" << json_num(wall_ms)
     << ",\"worker\":{\"isolated\":" << (worker.isolated ? "true" : "false")
     << ",\"spawns\":" << worker.spawns
     << ",\"retries\":" << worker.retries
     << ",\"peak_rss_kb\":" << worker.peak_rss_kb << "}";
  append_transport(os, transport);
  os << ",\"attempts\":[";
  for (std::size_t i = 0; i < attempts.size(); ++i) {
    if (i) os << ",";
    append_attempt_telemetry(os, attempts[i]);
  }
  os << "],\"replay\":{";
  if (replay.checked) {
    os << "\"violation_watts\":" << json_num(replay.check.violation_watts);
  }
  os << "},\"certificate\":{";
  if (certificate.checked) {
    os << "\"duality_gap\":" << json_num(certificate.duality_gap);
  }
  os << "}}}";
  return os.str();
}

std::string patch_transport_json(const std::string& report_json,
                                 const TransportTelemetry& transport) {
  const std::string marker = "\"transport\":{";
  const std::size_t start = report_json.find(marker);
  if (start == std::string::npos) return report_json;
  // The block contains no nested braces (flat scalars only), so the
  // first '}' after the marker closes it.
  const std::size_t close = report_json.find('}', start + marker.size());
  if (close == std::string::npos) return report_json;
  std::ostringstream block;
  append_transport(block, transport);
  // append_transport emits a leading ",\"transport\":..."; drop the
  // comma (the original block's separator stays in place).
  const std::string replacement = block.str().substr(1);
  std::string out = report_json;
  out.replace(start, close + 1 - start, replacement);
  return out;
}

std::string reports_to_json(const std::vector<std::string>& reports) {
  std::ostringstream os;
  os << "[\n";
  for (std::size_t i = 0; i < reports.size(); ++i) {
    if (i) os << ",\n";
    os << "  " << reports[i];
  }
  os << "\n]\n";
  return os.str();
}

LadderEcho ladder_echo(const SolveDriverOptions& options) {
  LadderEcho echo;
  echo.cap_deadline_ms =
      options.cap_deadline_ms > 0.0 ? options.cap_deadline_ms : 0.0;
  echo.cancellable = options.cancel != nullptr;
  return echo;
}

const FaultPlan* echo_fault_plan(RunReport& report, bool worker_died) {
  const FaultPlan* plan = ScopedFaultPlan::active();
  if (plan && !plan->applies_to_cap(report.job_cap_watts)) plan = nullptr;
  const bool solve = plan && plan->injures_solve();
  const bool worker =
      plan && worker_died && plan->worker_fault != WorkerFault::kNone;
  report.fault_active = solve || worker;
  report.fault_seed = report.fault_active ? plan->seed : 0;
  return solve ? plan : nullptr;
}

std::optional<sim::SimResult> static_fallback(
    const dag::TaskGraph& graph, const machine::PowerModel& model,
    const machine::ClusterSpec& cluster, RunReport& report) {
  const int ranks = graph.num_ranks();
  const double cap = report.job_cap_watts;
  try {
    runtime::StaticPolicy policy(model, ranks > 0 ? cap / ranks : cap);
    sim::EngineOptions eo;
    eo.cluster = cluster;
    eo.idle_power = model.idle_power();
    sim::SimResult sim = sim::simulate(graph, policy, eo);
    report.degraded = true;
    report.fallback = "static-policy";
    report.bound_seconds = sim.makespan;
    report.energy_joules = sim.energy_joules;
    return sim;
  } catch (const std::exception& e) {
    report.detail += "; static fallback also failed: ";
    report.detail += e.what();
  }
  return std::nullopt;
}

struct SolveDriver::Impl {
  const dag::TaskGraph* graph = nullptr;
  const machine::PowerModel* model = nullptr;
  const machine::ClusterSpec* cluster = nullptr;
  SolveDriverOptions options;
  core::FormulationHooks hooks;
  /// Built lazily so that a faulty build (empty frontier under an active
  /// FaultPlan) is reported per-solve and retried once the fault clears.
  mutable std::unique_ptr<core::WindowSweeper> sweeper;
  /// Built lazily on the first accepted solve. The checker re-derives
  /// windows/frontiers/event orders hook-free, so the cache is immune to
  /// the fault seams; it is cap-independent, so one instance serves a
  /// whole sweep.
  mutable std::unique_ptr<check::CertificateChecker> checker;
  /// One-time input-lint echo (stamped into every report once computed).
  mutable LintEcho lint_echo;

  const check::CertificateChecker& ensure_checker() const {
    if (!checker) {
      checker = std::make_unique<check::CertificateChecker>(
          *graph, *model, *cluster, options.certificate);
    }
    return *checker;
  }

  const LintEcho& ensure_lint() const {
    if (!lint_echo.checked) {
      try {
        check::LintReport report = check::lint_trace(*graph);
        report.merge(check::lint_machine(*cluster));
        if (report.ok()) {
          report.merge(check::lint_configs(*graph, *model));
        }
        lint_echo.checked = true;
        lint_echo.errors = report.errors();
        lint_echo.warnings = report.warnings();
      } catch (const std::exception&) {
        // An un-lintable input counts as one error; the solve itself will
        // surface the structural failure with its own verdict.
        lint_echo.checked = true;
        lint_echo.errors = 1;
      }
    }
    return lint_echo;
  }

  bool ensure_sweeper(RunReport& report) const {
    if (sweeper) return true;
    try {
      sweeper = std::make_unique<core::WindowSweeper>(*graph, *model,
                                                      *cluster, &hooks);
      return true;
    } catch (const core::EmptyFrontierError& e) {
      report.verdict = StatusCode::kEmptyFrontier;
      report.detail = e.what();
    } catch (const std::exception& e) {
      report.verdict = StatusCode::kBadInput;
      report.detail = e.what();
    }
    return false;
  }

  /// The supervision deadline for one cap: the per-cap wall budget plus
  /// the cancel token (either may be absent).
  util::Deadline cap_deadline() const {
    const util::Deadline per_cap =
        options.cap_deadline_ms > 0.0
            ? util::Deadline::after(options.cap_deadline_ms / 1000.0,
                                    options.cancel)
            : util::Deadline::cancel_only(options.cancel);
    return util::Deadline::sooner(per_cap, options.deadline);
  }
};

SolveDriver::SolveDriver(const dag::TaskGraph& graph,
                         const machine::PowerModel& model,
                         const machine::ClusterSpec& cluster,
                         SolveDriverOptions options)
    : impl_(std::make_unique<Impl>()) {
  impl_->graph = &graph;
  impl_->model = &model;
  impl_->cluster = &cluster;
  impl_->options = std::move(options);
  // Frontier fault seam: consulted during (lazy) sweeper construction.
  // Frontiers are cap-independent, so only_job_cap does not scope this
  // fault; drop_all_pareto_points empties every task's frontier.
  impl_->hooks.frontier = [](int /*edge_id*/,
                             std::vector<machine::Config>& frontier) {
    const FaultPlan* plan = ScopedFaultPlan::active();
    if (plan && plan->drop_all_pareto_points) frontier.clear();
  };
}

SolveDriver::~SolveDriver() = default;
SolveDriver::SolveDriver(SolveDriver&&) noexcept = default;
SolveDriver& SolveDriver::operator=(SolveDriver&&) noexcept = default;

SolveOutcome SolveDriver::solve(double job_cap_watts) const {
  const Impl& im = *impl_;
  const int ranks = im.graph->num_ranks();

  SolveOutcome out;
  RunReport& rep = out.report;
  WallTimer timer(&rep.wall_ms);
  rep.job_cap_watts = job_cap_watts;
  rep.socket_cap_watts = ranks > 0 ? job_cap_watts / ranks : 0.0;
  rep.ladder = ladder_echo(im.options);
  rep.lint = im.ensure_lint();

  if (!std::isfinite(job_cap_watts) || job_cap_watts <= 0.0) {
    rep.verdict = StatusCode::kBadInput;
    rep.detail = "power cap must be a positive finite wattage";
    return out;
  }
  if (!im.ensure_sweeper(rep)) {
    echo_fault_plan(rep);  // dropped frontiers surface here
    return out;
  }

  rep.min_feasible_power_watts = im.sweeper->min_feasible_power();
  if (job_cap_watts < rep.min_feasible_power_watts - 1e-9) {
    rep.verdict = StatusCode::kInfeasibleCap;
    std::ostringstream msg;
    msg << "job needs at least " << rep.min_feasible_power_watts << " W ("
        << rep.min_feasible_power_watts / ranks << " W/socket)";
    rep.detail = msg.str();
    return out;
  }

  const FaultPlan* plan = echo_fault_plan(rep);

  const util::Deadline deadline = im.cap_deadline();
  // Set when the wall budget dies mid-ladder: skip straight to the
  // Static-policy fallback (the next rung would fail in O(1) anyway).
  bool deadline_hit = false;

  for (int r = 0; r < static_cast<int>(std::size(kRungs)); ++r) {
    switch (deadline.stop_reason()) {
      case util::StopReason::kCancelled:
        rep.verdict = StatusCode::kCancelled;
        rep.detail = "cancelled before rung '" + std::string(kRungs[r]) + "'";
        return out;
      case util::StopReason::kDeadline:
        deadline_hit = true;
        break;
      case util::StopReason::kNone:
        break;
    }
    if (deadline_hit) break;

    SolveAttempt att;
    att.rung = kRungs[r];

    if (plan && plan->forces_status() && r < plan->fail_attempts) {
      att.injected = true;
      att.outcome = from_solve_status(plan->forced_status);
      att.detail = std::string("injected ") + lp::to_string(plan->forced_status);
    } else {
      core::LpScheduleOptions o = im.options.lp;
      o.power_cap = job_cap_watts;
      o.simplex.deadline = deadline;
      if (r > 0) o.simplex.bland_trigger = 0;  // "bland"
      if (plan && plan->coefficient_noise_magnitude > 0.0) {
        const double mag = plan->coefficient_noise_magnitude;
        const std::uint64_t seed = plan->seed;
        o.mutate_model = [mag, seed](lp::Model& m) {
          m.perturb_nonzeros(mag, seed);
        };
      }
      try {
        core::WindowedLpResult res = im.sweeper->solve(o);
        if (plan && plan->corrupt_solution_epsilon > 0.0 && res.optimal()) {
          // "Too good to be true": shrink the claimed bound after the
          // solve. The schedule (and hence replay) is untouched; only the
          // exact certificate checker can catch this.
          const double shrink = 1.0 - plan->corrupt_solution_epsilon;
          res.makespan *= shrink;
          for (double& t : res.vertex_time) t *= shrink;
        }
        att.outcome = from_solve_status(res.status);
        att.iterations = res.iterations;
        att.degenerate_pivots = res.degenerate_pivots;
        att.refactor_count = res.refactor_count;
        att.bland_engaged = res.bland_engaged;
        att.primal_infeasibility = res.primal_infeasibility;
        att.eta_nonzeros = res.eta_nonzeros;
        att.lu_fill_ratio = res.lu_fill_ratio;
        att.failed_window = res.failed_window;
        if (res.optimal()) {
          bool accepted = true;
          sim::ReplayOptions ro = im.options.replay;
          ro.engine.cluster = *im.cluster;
          ro.engine.idle_power = im.model->idle_power();
          const sim::SimResult sim = sim::replay_schedule(
              *im.graph, res.schedule, res.frontiers, ro, &res.vertex_time);
          const sim::CapCheck check =
              sim::check_cap(sim, job_cap_watts, im.options.cap_check);
          rep.replay.checked = true;
          rep.replay.check = check;
          out.simulated = sim;
          if (!check.ok) {
            accepted = false;
            att.outcome = StatusCode::kReplayCapViolation;
            std::ostringstream msg;
            msg << "replayed windowed power " << check.max_windowed_power
                << " W exceeds cap " << job_cap_watts << " W by "
                << check.violation_watts << " W";
            att.detail = msg.str();
          }
          if (accepted && im.options.verify_certificate) {
            const check::CertificateVerdict v =
                im.ensure_checker().verify(res, job_cap_watts, job_cap_watts);
            rep.certificate.checked = true;
            rep.certificate.ok = v.checked && v.ok;
            rep.certificate.duality_checked = v.duality_checked;
            rep.certificate.max_violation = v.max_violation;
            rep.certificate.duality_gap = v.duality_gap;
            rep.certificate.detail = v.detail;
            if (!rep.certificate.ok) {
              accepted = false;
              att.outcome = StatusCode::kCertificateFailed;
              att.detail = v.detail.empty()
                               ? "certificate verification failed"
                               : v.detail;
            }
          }
          if (accepted) {
            rep.verdict = StatusCode::kOk;
            rep.bound_seconds = res.makespan;
            rep.energy_joules = res.energy_joules;
            rep.attempts.push_back(std::move(att));
            out.lp = std::move(res);
            return out;
          }
        } else {
          att.detail = solve_failure_detail(res);
        }
      } catch (const core::EmptyFrontierError& e) {
        att.outcome = StatusCode::kEmptyFrontier;
        att.detail = e.what();
      } catch (const std::exception& e) {
        att.outcome = StatusCode::kInternal;
        att.detail = e.what();
      }
    }

    const StatusCode outcome = att.outcome;
    const std::string detail = att.detail;
    rep.attempts.push_back(std::move(att));
    if (outcome == StatusCode::kCancelled) {
      // Terminal and not degraded: the caller asked to stop. A journaled
      // sweep resumes this cap from scratch next run.
      rep.verdict = StatusCode::kCancelled;
      rep.detail = detail;
      return out;
    }
    if (outcome == StatusCode::kDeadlineExceeded) {
      deadline_hit = true;
      break;
    }
    if (!retryable(outcome)) {
      rep.verdict = outcome;
      rep.detail = detail;
      return out;
    }
  }

  // Ladder exhausted (or its wall budget died): classify by the final
  // attempt, then degrade to the always-simulable Static-policy bound so
  // the sweep keeps a usable number for this cap.
  if (rep.attempts.empty()) {
    // The budget was gone before the first rung even started.
    rep.verdict = StatusCode::kDeadlineExceeded;
    rep.detail = "cap deadline expired before the first ladder rung";
  } else if (deadline_hit) {
    rep.verdict = StatusCode::kDeadlineExceeded;
    rep.detail = "cap deadline expired after " +
                 std::to_string(rep.attempts.size()) +
                 " ladder attempt(s); last: " + rep.attempts.back().detail;
  } else {
    rep.verdict = rep.attempts.back().outcome;
    rep.detail = "all " + std::to_string(rep.attempts.size()) +
                 " ladder attempts failed; last: " + rep.attempts.back().detail;
  }
  if (std::optional<sim::SimResult> sim =
          static_fallback(*im.graph, *im.model, *im.cluster, rep)) {
    out.simulated = std::move(sim);
  }
  return out;
}

std::vector<SolveOutcome> SolveDriver::sweep(
    const std::vector<double>& job_caps) const {
  std::vector<SolveOutcome> out;
  out.reserve(job_caps.size());
  for (double cap : job_caps) out.push_back(solve(cap));
  return out;
}

}  // namespace powerlim::robust
