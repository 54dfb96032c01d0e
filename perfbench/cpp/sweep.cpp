// sweep-comd / sweep-lulesh: full cap sweeps through robust::SolveDriver,
// the path `powerlim sweep` takes for every cap.
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <iostream>
#include <optional>
#include <stdexcept>

#include "check/lint.h"
#include "common.h"
#include "dag/trace_io.h"
#include "layers.h"
#include "robust/pipeline.h"
#include "robust/solve_driver.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace pl = powerlim;

constexpr int kSetupRounds = 8;
constexpr int kTracedPasses = 2;

/// The correctness gate for one settled cap. The cap must end `ok` or
/// degraded as the reference records. An `ok` cap must carry passed
/// replay and certificate verdicts and the reference LP bound; a
/// degraded cap must carry the reference Static-policy bound.
bool check_cap(const pl::robust::RunReport& rep, const RefCap& ref,
               std::string* why) {
  const bool ok = rep.verdict == pl::robust::StatusCode::kOk;
  if ((ok || rep.degraded) && rep.degraded != ref.degraded) {
    *why = (ok ? std::string("ok") : "degraded (" + rep.detail + ")") +
           ", reference " + (ref.degraded ? "degraded" : "ok");
    return false;
  }
  if (ok) {
    if (!rep.replay.checked || !rep.replay.check.ok) {
      *why = "ok without a passed replay verdict";
      return false;
    }
    if (!rep.certificate.checked || !rep.certificate.ok) {
      *why = "ok without a passed certificate";
      return false;
    }
    if (!within_rel(rep.bound_seconds, ref.lp_bound_s, kBoundRelTol)) {
      *why = "LP bound " + json_num(rep.bound_seconds) + " s, reference " +
             json_num(ref.lp_bound_s) + " s";
      return false;
    }
    return true;
  }
  if (rep.degraded) {
    if (!within_rel(rep.bound_seconds, ref.static_bound_s, kBoundRelTol)) {
      *why = "degraded bound " + json_num(rep.bound_seconds) +
             " s, reference Static bound " + json_num(ref.static_bound_s) +
             " s";
      return false;
    }
    return true;
  }
  *why = std::string("verdict ") + pl::robust::to_string(rep.verdict) +
         ": " + rep.detail;
  return false;
}

}  // namespace

int run_sweep(const RunOptions& opt) {
  const SweepWorkload* w = nullptr;
  for (const SweepWorkload& s : sweep_workloads()) {
    if (s.name == opt.workload) w = &s;
  }
  if (w == nullptr) throw std::runtime_error("unknown workload");

  // Built first, so it is resident for the whole run and its bytes can
  // be taken off the peak RSS.
  HostProbe probe;

  // The benchmark generates the input; the program only reads the file.
  std::filesystem::create_directories(opt.work_dir);
  const std::string trace_path = opt.work_dir + "/trace.txt";
  pl::dag::save_trace(trace_path, make_trace(w->trace, opt.trace_seed));

  // Set-up as `powerlim sweep` does it: load, lint gate, driver. Rounds
  // run before the first pass and between passes, so their median spans
  // the whole run rather than its first second.
  std::vector<double> setup_s;
  std::optional<dag::TaskGraph> graph;
  auto setup_round = [&]() {
    const Clock::time_point t = Clock::now();
    auto loaded = pl::robust::load_trace_checked(trace_path);
    if (!loaded.ok()) throw std::runtime_error(loaded.status().message());
    const pl::check::LintReport lint = pl::check::lint_trace_file(
        trace_path, default_model(), default_cluster());
    if (!lint.ok()) throw std::runtime_error("generated trace failed lint");
    const dag::TaskGraph g = std::move(loaded).value();
    const pl::robust::SolveDriver driver(g, default_model(), default_cluster());
    setup_s.push_back(ms_since(t) / 1000.0);
    if (!graph) graph.emplace(g);
  };
  for (int r = 0; r < kSetupRounds; ++r) setup_round();
  const std::vector<RefCap> refs =
      load_references(opt.reference_path, w->name, opt.trace_seed, w->caps);
  const int ranks = graph->num_ranks();

  std::vector<double> cap_ms;
  std::vector<double> pass_ms;
  // The host probe after every solve (outside the timed interval), and
  // how many set-up rounds had run when each pass began.
  std::vector<double> probe_ms;
  std::vector<std::size_t> setup_before;
  long attempted = 0, failed = 0, degraded = 0;
  // Each pass visits the grid in ascending order, as `powerlim sweep`
  // does: the order steers the warm starts, and with them the time.
  auto timed_pass = [&]() {
    setup_before.push_back(setup_s.size());
    const pl::robust::SolveDriver driver(*graph, default_model(),
                                         default_cluster());
    double probe_total = 0.0;
    const Clock::time_point p0 = Clock::now();
    for (std::size_t i = 0; i < w->caps.size(); ++i) {
      const Clock::time_point t = Clock::now();
      const pl::robust::SolveOutcome out = driver.solve(w->caps[i] * ranks);
      cap_ms.push_back(ms_since(t));
      probe_ms.push_back(probe.run_ms());
      probe_total += probe_ms.back();
      ++attempted;
      if (out.report.degraded) ++degraded;
      std::string why;
      if (!check_cap(out.report, refs[i], &why)) {
        ++failed;
        std::cout << "MISMATCH " << w->name << " cap " << w->caps[i]
                  << " W: " << why << "\n";
      }
    }
    pass_ms.push_back(ms_since(p0) - probe_total);
  };

  if (!opt.trace) {
    const Clock::time_point start = Clock::now();
    while (ms_since(start) < opt.seconds * 1000.0 ||
           cap_ms.size() < kMinSweepSolves) {
      for (int r = 0; r < kSetupRounds; ++r) setup_round();
      timed_pass();
    }
    // Host-normalized figures. The inputs are the same in every pass (the
    // same 141,346 pivots per CoMD pass), yet on the shared host below a
    // CoMD pass took 3.1-5.7 s within minutes, in slow stretches of 20-80
    // s that no in-run median can average away. Each pass is scaled by
    // host_factor of the mean probe time of its own solves, and the
    // set-up rounds before it by the same factor (README, "Host
    // normalization").
    const std::size_t n = w->caps.size();
    std::vector<double> host(pass_ms.size());
    for (std::size_t k = 0; k < pass_ms.size(); ++k) {
      double sum = 0.0;
      for (std::size_t i = 0; i < n; ++i) sum += probe_ms[k * n + i];
      host[k] = host_factor(sum / static_cast<double>(n));
    }
    std::vector<double> setup_norm, pass_norm, cap_norm(n);
    for (std::size_t r = 0, k = 0; r < setup_s.size(); ++r) {
      while (k + 1 < setup_before.size() && setup_before[k] <= r) ++k;
      setup_norm.push_back(setup_s[r] * host[k]);
    }
    for (std::size_t k = 0; k < pass_ms.size(); ++k) {
      pass_norm.push_back(pass_ms[k] * host[k]);
    }
    for (std::size_t i = 0; i < n; ++i) {
      std::vector<double> at_cap;
      for (std::size_t k = 0; k < pass_ms.size(); ++k) {
        at_cap.push_back(cap_ms[k * n + i] * host[k]);
      }
      cap_norm[i] = median(at_cap);
    }
    const double slowest_cap = *std::max_element(cap_norm.begin(), cap_norm.end());
    const Tail pooled_tail = tail_at(cap_ms, tail_percentile(kMinSweepSolves));
    std::cout << "host probe: median " << median(probe_ms) << " ms, min "
              << *std::min_element(probe_ms.begin(), probe_ms.end())
              << " ms (reference " << kProbeRefMs << " ms)\n"
              << "sweep_s = " << median(pass_norm) / 1000.0
              << " s, median of " << pass_ms.size()
              << " passes, host-normalized (as measured: "
              << median(pass_ms) / 1000.0 << " s; passes:";
    for (double ms : pass_ms) std::cout << " " << ms / 1000.0;
    std::cout << ")\ncap_ms by cap, median over passes, host-normalized:";
    for (std::size_t i = 0; i < n; ++i) {
      std::cout << " " << w->caps[i] << " W " << cap_norm[i];
    }
    std::cout << "\ncap_ms.p50 = " << median(cap_norm)
              << " ms (median over caps; all " << cap_ms.size()
              << " solves as measured: " << median(cap_ms) << ")\n"
              << "cap_ms.tail = " << slowest_cap
              << " ms (slowest cap; all solves as measured: "
              << pooled_tail.value << ", " << describe(pooled_tail) << ")\n"
              << "failed_frac = "
              << static_cast<double>(degraded + failed) / attempted
              << " ratio (" << degraded << " degraded, " << failed
              << " mismatched of " << attempted << " caps)\n";
    print_result(failed == 0, attempted, failed,
                 {{"setup_s", median(setup_norm), "s"},
                  {"lat_ms.p50", median(cap_norm), "ms"},
                  {"lat_ms.tail", slowest_cap, "ms"},
                  {"heavy_ms.p50", median(pass_norm), "ms"},
                  {"peak_rss_mb",
                   (peak_rss_kb(::getpid()) * 1024.0 - probe.resident_bytes()) /
                       (1024.0 * 1024.0),
                   "MiB"}});
    return failed == 0 ? 0 : kExitIncorrect;
  }

  // Traced run: one plain pass for the overhead base, then traced passes
  // and the cold per-window LP solves.
  Tracer tracer;
  LayerValues values;
  measure_setup_layers(trace_path, 3, tracer, &values);
  timed_pass();
  RungTotals totals;
  for (int p = 0; p < kTracedPasses; ++p) {
    traced_rung_pass(*graph, w->caps, tracer, &totals);
  }
  rung_layer_values(totals, &values);
  measure_lp_layers(*graph, w->caps, &values);
  values["bench.trace_overhead"] =
      totals.driver_ms / kTracedPasses / pass_ms.front();
  values["failed_frac"] = static_cast<double>(degraded + failed) / attempted;
  tracer.write_json(opt.spans_path);

  std::cout << "SolveDriver time covered by core.solve + check.cert: "
            << values["bench.solve_cert_share"] << "\n"
            << "SolveDriver time covered by robust.ladder: "
            << values["bench.ladder_share"] << "\n"
            << "spans written to " << opt.spans_path << " ("
            << tracer.spans().size() << " spans)\n";
  print_result(failed == 0, attempted, failed, layer_metrics(values));
  return failed == 0 ? 0 : kExitIncorrect;
}

}  // namespace perfbench
