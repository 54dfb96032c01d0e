// Shared harness code for the per-figure bench binaries.
//
// Every binary reproduces one table or figure from the paper's evaluation
// (see DESIGN.md's experiment index) and prints the same rows/series the
// paper reports. Absolute seconds differ - the substrate is a simulator,
// not Cab - but the series *shape* (who wins, by roughly what factor,
// where the crossovers sit) is the reproduction target; EXPERIMENTS.md
// records paper-vs-measured for each.
//
// All binaries accept:  [--ranks N] [--iterations N] [--csv]
//                       [--json FILE]  (machine-readable artifact for CI)
#pragma once

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "core/windowed.h"
#include "machine/power_model.h"
#include "runtime/comparison.h"
#include "util/table.h"

namespace powerlim::bench {

struct BenchArgs {
  int ranks = 8;
  int iterations = 12;
  bool csv = false;
  /// When set, emit() also writes the table as a JSON artifact here
  /// (e.g. CI's BENCH_headline.json).
  std::string json_path;
};

inline BenchArgs parse_args(int argc, char** argv) {
  BenchArgs args;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--ranks") == 0 && i + 1 < argc) {
      args.ranks = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--iterations") == 0 && i + 1 < argc) {
      args.iterations = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--csv") == 0) {
      args.csv = true;
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      args.json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--help") == 0) {
      std::printf(
          "usage: %s [--ranks N] [--iterations N] [--csv] [--json FILE]\n",
          argv[0]);
      std::exit(0);
    }
  }
  return args;
}

inline void emit(const util::Table& table, const BenchArgs& args) {
  if (args.csv) {
    std::fputs(table.to_csv().c_str(), stdout);
  } else {
    std::fputs(table.to_string().c_str(), stdout);
  }
  if (!args.json_path.empty()) {
    std::FILE* f = std::fopen(args.json_path.c_str(), "w");
    if (f) {
      std::fputs(table.to_json().c_str(), f);
      std::fclose(f);
    } else {
      std::fprintf(stderr, "cannot write %s\n", args.json_path.c_str());
    }
  }
}

/// The machine every bench runs on (defaults model Cab's Xeon E5-2670).
inline const machine::PowerModel& model() {
  static const machine::PowerModel m{machine::SocketSpec{}};
  return m;
}

inline const machine::ClusterSpec& cluster() {
  static const machine::ClusterSpec c{};
  return c;
}

/// Runs the three-way comparison for one trace and per-socket cap. Pass
/// a prebuilt WindowSweeper when sweeping many caps over one trace.
inline runtime::ComparisonResult run_cap(
    const dag::TaskGraph& graph, double socket_watts,
    const core::WindowSweeper* sweeper = nullptr) {
  runtime::ComparisonOptions o;
  o.job_cap_watts = socket_watts * graph.num_ranks();
  return runtime::compare_methods(graph, model(), cluster(), o, sweeper);
}

/// Per-socket cap grids used by the paper's figures.
inline std::vector<double> caps_30_to_80() {
  return {30, 35, 40, 45, 50, 55, 60, 65, 70, 75, 80};
}
inline std::vector<double> caps_40_to_80() {
  return {40, 45, 50, 55, 60, 65, 70, 75, 80};
}
inline std::vector<double> caps_30_to_70() {
  return {30, 35, 40, 45, 50, 55, 60, 65, 70};
}

inline std::string fmt(double v, int digits = 2) {
  return util::Table::num(v, digits);
}

/// Shared body of the per-application figures (11, 13, 14, 15): LP and
/// Conductor improvement over Static across a cap grid.
inline void per_app_figure(const char* figure, const char* app_name,
                           const dag::TaskGraph& graph,
                           const std::vector<double>& caps,
                           const BenchArgs& args) {
  std::printf("== %s: %s improvement vs. Static (%%) ==\n", figure, app_name);
  std::printf("ranks=%d iterations taken from trace (first 3 discarded)\n\n",
              graph.num_ranks());
  util::Table t({"socket_w", "LP", "Conductor", "static_s", "conductor_s",
                 "lp_s"});
  const core::WindowSweeper sweeper(graph, model(), cluster());
  for (double cap : caps) {
    const runtime::ComparisonResult r = run_cap(graph, cap, &sweeper);
    if (!r.lp.feasible) {
      t.add_row({fmt(cap, 0), "n/s", "n/s", "-", "-", "-"});
      continue;
    }
    t.add_row({fmt(cap, 0), fmt(r.lp_vs_static(), 1),
               fmt(r.conductor_vs_static(), 1),
               fmt(r.static_alloc.window_seconds, 2),
               fmt(r.conductor.window_seconds, 2),
               fmt(r.lp.window_seconds, 2)});
  }
  emit(t, args);
}

}  // namespace powerlim::bench
