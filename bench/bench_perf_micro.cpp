// Google-benchmark microbenchmarks for the substrates themselves: simplex
// solve throughput (with a per-pivot FTRAN/BTRAN/pricing/ratio time
// breakdown), windowed LP end-to-end, discrete-event engine throughput,
// and frontier construction. These are not paper figures; they document
// the cost profile of the toolchain. CI archives the JSON form of this
// output as BENCH_perf_micro.json on every push (--benchmark_out).
#include <benchmark/benchmark.h>

#include <algorithm>

#include "apps/benchmarks.h"
#include "apps/exchange.h"
#include "check/certificate.h"
#include "core/flow_ilp.h"
#include "core/lp_formulation.h"
#include "core/pareto.h"
#include "core/windowed.h"
#include "lp/simplex.h"
#include "machine/power_model.h"
#include "runtime/static_policy.h"
#include "sim/engine.h"
#include "util/rng.h"

namespace {

using namespace powerlim;

const machine::PowerModel& model() {
  static const machine::PowerModel m{machine::SocketSpec{}};
  return m;
}

/// Shared solve loop for the simplex benchmarks: solves `m` repeatedly
/// with per-bucket timing enabled, then reports simplex iterations/sec
/// plus the per-pivot cost of each phase of a pivot (FTRAN, BTRAN,
/// pricing, ratio test, eta update, refactor). The buckets come from
/// SimplexStats::*_ns (collect_timing), so the breakdown is the solver's
/// own accounting, not an external profile.
void solve_loop(benchmark::State& state, const lp::Model& m) {
  lp::SimplexOptions opt;
  opt.collect_timing = true;
  long iters = 0;
  lp::SimplexStats acc;
  for (auto _ : state) {
    const lp::Solution sol = lp::solve_lp(m, opt);
    benchmark::DoNotOptimize(sol.objective);
    if (!sol.optimal()) state.SkipWithError("solve not optimal");
    iters += sol.stats.iterations;
    acc.ftran_ns += sol.stats.ftran_ns;
    acc.btran_ns += sol.stats.btran_ns;
    acc.pricing_ns += sol.stats.pricing_ns;
    acc.ratio_ns += sol.stats.ratio_ns;
    acc.update_ns += sol.stats.update_ns;
    acc.factor_ns += sol.stats.factor_ns;
    acc.eta_nonzeros = std::max(acc.eta_nonzeros, sol.stats.eta_nonzeros);
    acc.lu_fill_ratio = std::max(acc.lu_fill_ratio, sol.stats.lu_fill_ratio);
  }
  const double piv = iters > 0 ? static_cast<double>(iters) : 1.0;
  state.counters["iters_per_sec"] = benchmark::Counter(
      static_cast<double>(iters), benchmark::Counter::kIsRate);
  state.counters["ftran_ns_per_pivot"] = acc.ftran_ns / piv;
  state.counters["btran_ns_per_pivot"] = acc.btran_ns / piv;
  state.counters["pricing_ns_per_pivot"] = acc.pricing_ns / piv;
  state.counters["ratio_ns_per_pivot"] = acc.ratio_ns / piv;
  state.counters["update_ns_per_pivot"] = acc.update_ns / piv;
  state.counters["factor_ns_per_pivot"] = acc.factor_ns / piv;
  state.counters["peak_eta_nonzeros"] =
      static_cast<double>(acc.eta_nonzeros);
  state.counters["lu_fill_ratio"] = acc.lu_fill_ratio;
  state.counters["rows"] = static_cast<double>(m.num_constraints());
  state.counters["cols"] = static_cast<double>(m.num_variables());
}

/// Paper-scale LPs: one barrier window of the CoMD trace at the given
/// rank count, solved through the same lp::Model the production windowed
/// pipeline builds. Arg = ranks.
void BM_SimplexPaperWindow(benchmark::State& state) {
  const int ranks = static_cast<int>(state.range(0));
  const dag::TaskGraph g = apps::make_comd({.ranks = ranks, .iterations = 1});
  const machine::ClusterSpec cluster;
  const core::LpFormulation form(g, model(), cluster);
  const core::BuiltModel built =
      form.build_model({.power_cap = ranks * 45.0});
  solve_loop(state, built.model);
}
BENCHMARK(BM_SimplexPaperWindow)->ArgName("ranks")->Arg(8)->Arg(32)->Arg(64);

/// Paper-scale whole-trace LP: the full CoMD run formulated as ONE LP,
/// no barrier decomposition — the problem size the paper's Section 5
/// scaling discussion is about (the windowed path keeps each window
/// small; the whole-trace LP grows with iterations).
void BM_SimplexWholeTrace(benchmark::State& state) {
  const int ranks = static_cast<int>(state.range(0));
  const dag::TaskGraph g =
      apps::make_comd({.ranks = ranks, .iterations = 12});
  const machine::ClusterSpec cluster;
  const core::LpFormulation form(g, model(), cluster);
  const core::BuiltModel built =
      form.build_model({.power_cap = ranks * 45.0});
  solve_loop(state, built.model);
}
BENCHMARK(BM_SimplexWholeTrace)
    ->ArgName("ranks")
    ->Arg(8)
    ->Arg(16)
    ->Arg(32)
    ->Unit(benchmark::kMillisecond);

/// Banded synthetic LP: bandwidth-4 >= rows over box variables. This is
/// the sparse LU's best case (near-fill-free factors, O(band) FTRANs).
lp::Model banded_model(int m) {
  util::Rng rng(7);
  lp::Model mod(lp::Sense::kMinimize);
  std::vector<lp::Variable> x;
  x.reserve(static_cast<std::size_t>(m));
  for (int j = 0; j < m; ++j) {
    x.push_back(mod.add_variable(0.0, 10.0, rng.uniform(0.5, 1.5)));
  }
  for (int i = 0; i < m; ++i) {
    std::vector<lp::Term> terms;
    for (int k = 0; k < 4 && i + k < m; ++k) {
      terms.push_back({x[i + k], k == 0 ? 1.0 : rng.uniform(0.1, 0.5)});
    }
    mod.add_ge(terms, rng.uniform(1.0, 2.0));
  }
  return mod;
}

void BM_SimplexBandedSynthetic(benchmark::State& state) {
  const lp::Model m = banded_model(static_cast<int>(state.range(0)));
  solve_loop(state, m);
}
BENCHMARK(BM_SimplexBandedSynthetic)
    ->ArgName("rows")
    ->Arg(128)
    ->Arg(512)
    ->Arg(1536)
    ->Unit(benchmark::kMillisecond);

void BM_LpFormulationSingleWindow(benchmark::State& state) {
  const int ranks = static_cast<int>(state.range(0));
  const dag::TaskGraph g = apps::make_comd({.ranks = ranks, .iterations = 1});
  const machine::ClusterSpec cluster;
  const core::LpFormulation form(g, model(), cluster);
  for (auto _ : state) {
    benchmark::DoNotOptimize(form.solve({.power_cap = ranks * 45.0}));
  }
}
BENCHMARK(BM_LpFormulationSingleWindow)->Arg(4)->Arg(8)->Arg(16)->Arg(32);

void BM_WindowedLpLulesh(benchmark::State& state) {
  const int iters = static_cast<int>(state.range(0));
  const dag::TaskGraph g = apps::make_lulesh({.ranks = 8, .iterations = iters});
  const machine::ClusterSpec cluster;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::solve_windowed_lp(g, model(), cluster, {.power_cap = 8 * 50.0}));
  }
}
BENCHMARK(BM_WindowedLpLulesh)->Arg(2)->Arg(8);

/// The exact certificate of one accepted cap: CoMD 64x20 at trace seed
/// 17 (the perfbench sweep-comd trace) under a 50 W socket cap. The solve
/// and the checker's per-window formulations are built outside the timed
/// loop, so each iteration is one CertificateChecker::verify.
void BM_CertificateVerify(benchmark::State& state) {
  constexpr int kRanks = 64;
  const dag::TaskGraph g =
      apps::make_comd({.ranks = kRanks, .iterations = 20, .seed = 17});
  const machine::ClusterSpec cluster;
  const double cap = kRanks * 50.0;
  core::WindowSweeper sweeper(g, model(), cluster);
  const core::WindowedLpResult res = sweeper.solve({.power_cap = cap});
  if (!res.optimal()) {
    state.SkipWithError("solve not optimal");
    return;
  }
  const check::CertificateChecker checker(g, model(), cluster);
  for (auto _ : state) {
    const check::CertificateVerdict v = checker.verify(res, cap, cap);
    if (!v.ok) state.SkipWithError("certificate rejected the solve");
    benchmark::DoNotOptimize(v.duality_gap);
  }
}
BENCHMARK(BM_CertificateVerify)->Unit(benchmark::kMillisecond);

void BM_EngineStaticLulesh(benchmark::State& state) {
  const int ranks = static_cast<int>(state.range(0));
  const dag::TaskGraph g = apps::make_lulesh({.ranks = ranks, .iterations = 10});
  sim::EngineOptions eo;
  eo.idle_power = model().idle_power();
  for (auto _ : state) {
    runtime::StaticPolicy policy(model(), 50.0);
    benchmark::DoNotOptimize(sim::simulate(g, policy, eo));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<long>(g.num_edges()));
}
BENCHMARK(BM_EngineStaticLulesh)->Arg(8)->Arg(32);

void BM_FlowIlpExchange(benchmark::State& state) {
  const dag::TaskGraph g = apps::two_rank_exchange();
  const machine::ClusterSpec cluster;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::solve_flow_ilp(
        g, model(), cluster, {.power_cap = 100.0}));
  }
}
BENCHMARK(BM_FlowIlpExchange);

void BM_TraceGeneration(benchmark::State& state) {
  const int ranks = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        apps::make_lulesh({.ranks = ranks, .iterations = 10}));
  }
}
BENCHMARK(BM_TraceGeneration)->Arg(8)->Arg(32);

void BM_ConvexFrontier(benchmark::State& state) {
  machine::TaskWork w;
  w.cpu_seconds = 5.0;
  w.mem_seconds = 1.0;
  const auto configs = model().enumerate(w);
  for (auto _ : state) {
    auto copy = configs;
    benchmark::DoNotOptimize(core::convex_frontier(std::move(copy)));
  }
}
BENCHMARK(BM_ConvexFrontier);

}  // namespace

BENCHMARK_MAIN();
