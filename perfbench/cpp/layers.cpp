#include "layers.h"

#include <algorithm>
#include <stdexcept>

#include "check/certificate.h"
#include "check/lint.h"
#include "core/lp_formulation.h"
#include "core/windowed.h"
#include "dag/windows.h"
#include "lp/simplex.h"
#include "robust/pipeline.h"
#include "robust/solve_driver.h"
#include "sim/replay.h"

namespace perfbench {

namespace pl = powerlim;

const std::vector<std::pair<std::string, std::string>>& layer_metric_units() {
  static const std::vector<std::pair<std::string, std::string>> all = {
      {"dag.parse_ms", "ms"},
      {"check.lint_ms", "ms"},
      {"check.cert_build_ms", "ms"},
      {"check.cert_ms", "ms"},
      {"core.window_build_ms", "ms"},
      {"core.windows", "count"},
      {"core.solve_ms", "ms"},
      {"lp.pivots", "count"},
      {"lp.us_per_pivot", "us"},
      {"lp.degenerate_frac", "ratio"},
      {"lp.refactors", "count"},
      {"lp.pricing_ns", "ns"},
      {"lp.ftran_ns", "ns"},
      {"lp.btran_ns", "ns"},
      {"lp.ratio_ns", "ns"},
      {"lp.update_ns", "ns"},
      {"lp.factor_ns", "ns"},
      {"sim.replay_ms", "ms"},
      {"robust.driver_ms", "ms"},
      {"robust.attempts_per_cap", "count"},
      {"robust.wasted_pivot_frac", "ratio"},
      {"robust.ladder_ms", "ms"},
      {"robust.degraded_caps", "count"},
      {"journal.open_ms", "ms"},
      {"journal.append_ms", "ms"},
      {"journal.bytes", "bytes"},
      {"serve.server_ms", "ms"},
      {"serve.parse_ms", "ms"},
      {"serve.queue_wait_ms", "ms"},
      {"serve.wire_ms", "ms"},
      {"serve.shed", "count"},
      {"serve.max_rps", "1/s"},
      {"bench.late_ms", "ms"},
      {"bench.trace_overhead", "ratio"},
      {"bench.solve_cert_share", "ratio"},
      {"bench.ladder_share", "ratio"},
      {"bench.wire_share", "ratio"},
      {"failed_frac", "ratio"},
  };
  return all;
}

std::vector<Metric> layer_metrics(const LayerValues& values) {
  std::vector<Metric> out;
  for (const auto& [name, unit] : layer_metric_units()) {
    const auto it = values.find(name);
    out.push_back({name, it == values.end() ? 0.0 : it->second, unit});
  }
  return out;
}

void measure_setup_layers(const std::string& trace_path, int reps,
                          Tracer& tracer, LayerValues* out) {
  std::vector<double> parse, lint, build, cert;
  double windows = 0.0;
  for (int r = 0; r < reps; ++r) {
    const int root = tracer.begin("setup", -1, r);
    int s = tracer.begin("dag.parse", root, r);
    Clock::time_point t = Clock::now();
    const auto trace = pl::robust::load_trace_checked(trace_path);
    parse.push_back(ms_since(t));
    tracer.end(s);
    if (!trace.ok()) throw std::runtime_error(trace.status().message());

    s = tracer.begin("check.lint", root, r);
    t = Clock::now();
    const pl::check::LintReport report = pl::check::lint_trace_file(
        trace_path, default_model(), default_cluster());
    lint.push_back(ms_since(t));
    tracer.end(s);
    if (!report.ok()) throw std::runtime_error("trace failed lint");

    s = tracer.begin("core.window_build", root, r);
    t = Clock::now();
    const pl::core::WindowSweeper sweeper(*trace, default_model(),
                                          default_cluster());
    build.push_back(ms_since(t));
    tracer.end(s);
    windows = static_cast<double>(sweeper.num_windows());

    s = tracer.begin("check.cert_build", root, r);
    t = Clock::now();
    const pl::check::CertificateChecker checker(*trace, default_model(),
                                                default_cluster());
    cert.push_back(ms_since(t));
    tracer.end(s);
    tracer.end(root);
  }
  (*out)["dag.parse_ms"] = median(parse);
  (*out)["check.lint_ms"] = median(lint);
  (*out)["core.window_build_ms"] = median(build);
  (*out)["core.windows"] = windows;
  (*out)["check.cert_build_ms"] = median(cert);
}

void traced_rung_pass(const dag::TaskGraph& graph,
                      const std::vector<double>& socket_caps, Tracer& tracer,
                      RungTotals* totals) {
  const pl::robust::SolveDriver driver(graph, default_model(),
                                       default_cluster());
  // The decomposition keeps its own sweeper, so its warm-start cache
  // follows the same cap sequence as the driver's first rung.
  const pl::core::WindowSweeper sweeper(graph, default_model(),
                                        default_cluster());
  const pl::check::CertificateChecker checker(graph, default_model(),
                                              default_cluster());
  const pl::robust::SolveDriverOptions defaults;
  pl::sim::ReplayOptions replay = defaults.replay;
  replay.engine.cluster = default_cluster();
  replay.engine.idle_power = default_model().idle_power();

  const int pass = tracer.begin("pass", -1, totals->passes);
  for (double socket_w : socket_caps) {
    const double job_cap = socket_w * graph.num_ranks();
    const long id = static_cast<long>(socket_w * 10.0 + 0.5);

    const int ds = tracer.begin("driver.solve", pass, id);
    const pl::robust::SolveOutcome out = driver.solve(job_cap);
    tracer.end(ds);
    const double driver_ms = tracer.spans()[static_cast<std::size_t>(ds)]
                                 .duration_ms();

    const int fr = tracer.begin("first_rung", pass, id);
    double rung_ms = 0.0;
    pl::core::LpScheduleOptions lo = defaults.lp;
    lo.power_cap = job_cap;
    int s = tracer.begin("core.solve", fr, id);
    Clock::time_point t = Clock::now();
    const pl::core::WindowedLpResult res = sweeper.solve(lo);
    double ms = ms_since(t);
    tracer.end(s);
    totals->solve_ms += ms;
    rung_ms += ms;
    if (res.optimal()) {
      s = tracer.begin("sim.replay", fr, id);
      t = Clock::now();
      const pl::sim::SimResult sim = pl::sim::replay_schedule(
          graph, res.schedule, res.frontiers, replay, &res.vertex_time);
      const pl::sim::CapCheck check =
          pl::sim::check_cap(sim, job_cap, defaults.cap_check);
      ms = ms_since(t);
      tracer.end(s);
      totals->replay_ms += ms;
      rung_ms += ms;
      ++totals->replayed;
      if (check.ok) {
        s = tracer.begin("check.cert", fr, id);
        t = Clock::now();
        const pl::check::CertificateVerdict v =
            checker.verify(res, job_cap, job_cap);
        ms = ms_since(t);
        tracer.end(s);
        (void)v;
        totals->cert_ms += ms;
        rung_ms += ms;
        ++totals->accepted;
      }
    }
    tracer.end(fr);

    totals->driver_ms += driver_ms;
    totals->ladder_ms += std::max(0.0, driver_ms - rung_ms);
    ++totals->caps;
    if (out.report.degraded) ++totals->degraded;
    const auto& attempts = out.report.attempts;
    totals->attempts += static_cast<long>(attempts.size());
    for (std::size_t i = 0; i < attempts.size(); ++i) {
      totals->pivots += attempts[i].iterations;
      const bool accepted = out.ok() && i + 1 == attempts.size();
      if (!accepted) totals->wasted_pivots += attempts[i].iterations;
    }
  }
  tracer.end(pass);
  ++totals->passes;
}

void rung_layer_values(const RungTotals& t, LayerValues* out) {
  auto per = [](double sum, int n) { return n > 0 ? sum / n : 0.0; };
  (*out)["robust.driver_ms"] = per(t.driver_ms, t.caps);
  (*out)["core.solve_ms"] = per(t.solve_ms, t.caps);
  (*out)["sim.replay_ms"] = per(t.replay_ms, t.replayed);
  (*out)["check.cert_ms"] = per(t.cert_ms, t.accepted);
  (*out)["robust.ladder_ms"] = per(t.ladder_ms, t.caps);
  (*out)["robust.attempts_per_cap"] =
      per(static_cast<double>(t.attempts), t.caps);
  (*out)["robust.wasted_pivot_frac"] =
      t.pivots > 0 ? static_cast<double>(t.wasted_pivots) / t.pivots : 0.0;
  (*out)["robust.degraded_caps"] = per(t.degraded, t.passes);
  if (t.driver_ms > 0.0) {
    (*out)["bench.solve_cert_share"] = (t.solve_ms + t.cert_ms) / t.driver_ms;
    (*out)["bench.ladder_share"] = t.ladder_ms / t.driver_ms;
  }
}

void measure_lp_layers(const dag::TaskGraph& graph,
                       const std::vector<double>& socket_caps,
                       LayerValues* out) {
  const std::vector<dag::Window> windows = dag::split_at_barriers(graph);
  std::vector<pl::core::LpFormulation> forms;
  forms.reserve(windows.size());
  for (const dag::Window& w : windows) {
    forms.emplace_back(w.graph, default_model(), default_cluster());
  }
  pl::lp::SimplexOptions so;
  so.collect_timing = true;
  long pivots = 0, degenerate = 0, refactors = 0;
  double wall_ns = 0.0, pricing = 0.0, ftran = 0.0, btran = 0.0, ratio = 0.0,
         update = 0.0, factor = 0.0;
  for (double socket_w : socket_caps) {
    pl::core::LpScheduleOptions lo;
    lo.power_cap = socket_w * graph.num_ranks();
    for (const pl::core::LpFormulation& form : forms) {
      const pl::core::BuiltModel built = form.build_model(lo);
      const Clock::time_point t = Clock::now();
      const pl::lp::Solution sol = pl::lp::solve_lp(built.model, so);
      wall_ns += ms_since(t) * 1e6;
      const pl::lp::SimplexStats& st = sol.stats;
      pivots += st.iterations;
      degenerate += st.degenerate_pivots;
      refactors += st.refactor_count;
      pricing += st.pricing_ns;
      ftran += st.ftran_ns;
      btran += st.btran_ns;
      ratio += st.ratio_ns;
      update += st.update_ns;
      factor += st.factor_ns;
    }
  }
  const double n = pivots > 0 ? static_cast<double>(pivots) : 1.0;
  (*out)["lp.pivots"] = static_cast<double>(pivots);
  (*out)["lp.us_per_pivot"] = wall_ns / n / 1e3;
  (*out)["lp.degenerate_frac"] = static_cast<double>(degenerate) / n;
  (*out)["lp.refactors"] = static_cast<double>(refactors);
  (*out)["lp.pricing_ns"] = pricing / n;
  (*out)["lp.ftran_ns"] = ftran / n;
  (*out)["lp.btran_ns"] = btran / n;
  (*out)["lp.ratio_ns"] = ratio / n;
  (*out)["lp.update_ns"] = update / n;
  (*out)["lp.factor_ns"] = factor / n;
}

}  // namespace perfbench
