#include "workloads.h"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "apps/benchmarks.h"
#include "common.h"
#include "core/windowed.h"
#include "robust/solve_driver.h"
#include "runtime/static_policy.h"
#include "sim/engine.h"

namespace perfbench {

dag::TaskGraph make_trace(const TraceSpec& spec, std::uint64_t trace_seed) {
  if (spec.app == "comd") {
    return powerlim::apps::make_comd({.ranks = spec.ranks,
                                      .iterations = spec.iterations,
                                      .seed = trace_seed});
  }
  return powerlim::apps::make_lulesh(
      {.ranks = spec.ranks, .iterations = spec.iterations, .seed = trace_seed});
}

std::vector<double> cap_grid(double from, double to, double step) {
  std::vector<double> caps;
  for (int k = 0; from + k * step <= to + 1e-9; ++k) {
    caps.push_back(from + k * step);
  }
  return caps;
}

const std::vector<SweepWorkload>& sweep_workloads() {
  static const std::vector<SweepWorkload> all = {
      {"sweep-comd", {"comd", 64, 20}, cap_grid(30, 80, 5)},
      {"sweep-lulesh", {"lulesh", 8, 12}, cap_grid(40, 80, 5)},
  };
  return all;
}

TraceSpec serve_trace_spec() { return {"comd", 32, 20}; }

std::vector<double> serve_primed_caps() { return cap_grid(40, 80, 10); }

const machine::PowerModel& default_model() {
  static const machine::PowerModel m{machine::SocketSpec{}};
  return m;
}

const machine::ClusterSpec& default_cluster() {
  static const machine::ClusterSpec c;
  return c;
}

namespace {

RefCap compute_reference(const dag::TaskGraph& graph, double socket_w) {
  namespace pl = powerlim;
  const double job_cap = socket_w * graph.num_ranks();
  RefCap ref;
  ref.socket_w = socket_w;
  pl::core::LpScheduleOptions lo;
  lo.power_cap = job_cap;
  const pl::core::WindowedLpResult lp = pl::core::solve_windowed_lp(
      graph, default_model(), default_cluster(), lo);
  ref.lp_bound_s = lp.optimal() ? lp.makespan : -1.0;
  // The same per-socket division SolveDriver makes before it falls back.
  pl::runtime::StaticPolicy policy(default_model(),
                                  job_cap / graph.num_ranks());
  pl::sim::EngineOptions eo;
  eo.cluster = default_cluster();
  eo.idle_power = default_model().idle_power();
  ref.static_bound_s = pl::sim::simulate(graph, policy, eo).makespan;
  return ref;
}

}  // namespace

std::vector<RefCap> load_references(const std::string& path,
                                    const std::string& workload,
                                    std::uint64_t trace_seed,
                                    const std::vector<double>& caps) {
  std::vector<RefCap> stored;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::string name, verdict;
    std::uint64_t seed = 0;
    RefCap r;
    if (!(fields >> name) || name[0] == '#') continue;
    if (fields >> seed >> r.socket_w >> r.lp_bound_s >> r.static_bound_s >>
            verdict &&
        name == workload && seed == trace_seed) {
      if (verdict != "ok" && verdict != "degraded") {
        throw std::runtime_error("bad verdict '" + verdict + "' in " + path);
      }
      r.degraded = verdict == "degraded";
      stored.push_back(r);
    }
  }
  std::vector<RefCap> out;
  for (double cap : caps) {
    const auto hit = std::find_if(stored.begin(), stored.end(), [&](auto& r) {
      return r.socket_w == cap;
    });
    if (hit == stored.end()) {
      throw std::runtime_error(
          "no reference for " + workload + " at trace seed " +
          std::to_string(trace_seed) + ", " + json_num(cap) +
          " W; store one with perfbench/run.py --write-reference "
          "--trace-seed " + std::to_string(trace_seed));
    }
    out.push_back(*hit);
  }
  return out;
}

std::string reference_lines(std::uint64_t trace_seed) {
  std::ostringstream os;
  auto emit = [&](const std::string& name, const TraceSpec& spec,
                  const std::vector<double>& caps) {
    const dag::TaskGraph g = make_trace(spec, trace_seed);
    const powerlim::robust::SolveDriver driver(g, default_model(),
                                               default_cluster());
    for (double cap : caps) {
      const RefCap r = compute_reference(g, cap);
      const bool degraded = driver.solve(cap * g.num_ranks()).report.degraded;
      os << name << " " << trace_seed << " " << cap << " "
         << json_num(r.lp_bound_s) << " " << json_num(r.static_bound_s) << " "
         << (degraded ? "degraded" : "ok") << "\n";
    }
  };
  for (const SweepWorkload& w : sweep_workloads()) {
    emit(w.name, w.trace, w.caps);
  }
  emit(kServeWorkload, serve_trace_spec(), serve_primed_caps());
  return os.str();
}

}  // namespace perfbench
