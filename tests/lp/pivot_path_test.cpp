// Pins the simplex pivot path on a fixed corpus of paper window LPs.
//
// Pricing is the hottest loop of the solver, and it is where a "pure
// speed" change can silently pick a different entering column: a
// reordered sum, a changed tie-break or a column visited out of order
// still reaches a certified optimum, but by a different path, and with
// it possibly at a different optimal vertex: every report value that
// depends on the vertex (energy, replay peak) would move with it. So
// this suite records, per solve, the iteration, degenerate-pivot and
// refactorization counts and the exact bits of the objective, and
// requires every later build to reproduce them.
//
// Corpus: the largest barrier window of a CoMD and a LULESH trace, each
// at two socket caps, under the default anti-cycling trigger and with
// Bland's rule from the first pivot (bland_trigger = 0, the retry
// ladder's bland rung). A second table pins paper-sized windows, where
// pricing walks each task's configuration shares as a convex chain
// (DESIGN.md section 5 "Pricing"): CoMD at 64 ranks with a binding and a
// slack power row (the monotone case), LULESH tasks that sit on several
// power rows, SP and BT, and one energy-mode solve, whose phase II cost
// is not linear in a share's (time, power) point.
//
// A deliberate change of pivot path (a new pricing rule, a different
// crash basis) must re-record the table; the failure message prints
// each mismatching row in table form.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "apps/benchmarks.h"
#include "core/lp_formulation.h"
#include "dag/windows.h"
#include "lp/simplex.h"
#include "machine/power_model.h"

namespace powerlim {
namespace {

struct PinnedSolve {
  const char* app;
  double socket_cap;
  int bland_trigger;
  long iterations;
  long degenerate_pivots;
  long refactor_count;
  std::uint64_t objective_bits;
};

// clang-format off
const PinnedSolve kPinned[] = {
    {"comd", 45, 100, 160, 31, 8, 0x3ffc25c5448efd3d},
    {"comd", 45, 0, 463, 14, 26, 0x3ffc25c5448efd3c},
    {"comd", 70, 100, 128, 19, 6, 0x3ff6350f9b5706c7},
    {"comd", 70, 0, 547, 14, 31, 0x3ff6350f9b5706c4},
    {"lulesh", 40, 100, 306, 108, 13, 0x40178961a7d09a1e},
    {"lulesh", 40, 0, 1604, 455, 76, 0x40178961a7d09a1e},
    {"lulesh", 70, 100, 123, 59, 3, 0x401664d959b6b915},
    {"lulesh", 70, 0, 688, 318, 20, 0x401664d959b6b915},
};
// clang-format on

/// One solve of the largest window of an `app` trace of `ranks` x
/// `iters`, makespan or energy objective.
struct PinnedWindow {
  const char* app;
  int ranks;
  int iters;
  bool energy;
  double socket_cap;
  long iterations;
  long degenerate_pivots;
  long refactor_count;
  std::uint64_t objective_bits;
};

// clang-format off
const PinnedWindow kPinnedPaperWindows[] = {
    {"comd", 64, 1, false, 30, 680, 122, 32, 0x4006de28bec7400b},
    {"comd", 64, 1, false, 55, 740, 150, 36, 0x3ff8e8e704c2e814},
    {"comd", 64, 1, false, 80, 380, 115, 15, 0x3ff597217a0a252e},
    {"lulesh", 8, 12, false, 45, 228, 82, 8, 0x4016c389bbf91592},
    {"lulesh", 8, 12, false, 60, 123, 59, 3, 0x401664d959b6b915},
    {"sp", 8, 12, false, 50, 287, 98, 9, 0x4002ce0814ff51fc},
    {"bt", 8, 12, false, 50, 262, 105, 9, 0x4008525edfa3ae08},
    {"comd", 64, 1, true, 80, 515, 33, 10, 0x40b41074ce293972},
};
// clang-format on

/// The window of `graph` with the most edges (the first on a tie).
dag::Window largest_window(const dag::TaskGraph& graph) {
  std::vector<dag::Window> windows = dag::split_at_barriers(graph);
  std::size_t pick = 0;
  for (std::size_t w = 1; w < windows.size(); ++w) {
    if (windows[w].graph.num_edges() > windows[pick].graph.num_edges()) {
      pick = w;
    }
  }
  return std::move(windows[pick]);
}

dag::TaskGraph corpus_trace(const std::string& app) {
  if (app == "comd") return apps::make_comd({.ranks = 16, .iterations = 2});
  return apps::make_lulesh({.ranks = 8, .iterations = 2});
}

dag::TaskGraph paper_trace(const PinnedWindow& p) {
  const std::string app = p.app;
  if (app == "comd") {
    return apps::make_comd({.ranks = p.ranks, .iterations = p.iters});
  }
  if (app == "lulesh") {
    return apps::make_lulesh({.ranks = p.ranks, .iterations = p.iters});
  }
  const apps::NasMzParams nas{.ranks = p.ranks, .iterations = p.iters};
  return app == "sp" ? apps::make_sp(nas) : apps::make_bt(nas);
}

std::string row_text(const PinnedSolve& p) {
  char buf[200];
  std::snprintf(buf, sizeof buf,
                "{\"%s\", %g, %d, %ld, %ld, %ld, 0x%llx},", p.app,
                p.socket_cap, p.bland_trigger, p.iterations,
                p.degenerate_pivots, p.refactor_count,
                static_cast<unsigned long long>(p.objective_bits));
  return buf;
}

std::string row_text(const PinnedWindow& p) {
  char buf[200];
  std::snprintf(buf, sizeof buf,
                "{\"%s\", %d, %d, %s, %g, %ld, %ld, %ld, 0x%llx},", p.app,
                p.ranks, p.iters, p.energy ? "true" : "false", p.socket_cap,
                p.iterations, p.degenerate_pivots, p.refactor_count,
                static_cast<unsigned long long>(p.objective_bits));
  return buf;
}

TEST(PivotPath, WindowCorpusTakesThePinnedPivots) {
  const machine::PowerModel power{machine::SocketSpec{}};
  const machine::ClusterSpec cluster{};
  for (const PinnedSolve& want : kPinned) {
    const dag::Window win = largest_window(corpus_trace(want.app));
    const core::LpFormulation form(win.graph, power, cluster);
    const core::BuiltModel built = form.build_model(
        {.power_cap = want.socket_cap * win.graph.num_ranks()});
    lp::SimplexOptions opt;
    opt.bland_trigger = want.bland_trigger;
    const lp::Solution sol = lp::solve_lp(built.model, opt);
    ASSERT_TRUE(sol.optimal()) << row_text(want);

    PinnedSolve got = want;
    got.iterations = sol.stats.iterations;
    got.degenerate_pivots = sol.stats.degenerate_pivots;
    got.refactor_count = sol.stats.refactor_count;
    got.objective_bits = std::bit_cast<std::uint64_t>(sol.objective);
    EXPECT_EQ(row_text(got), row_text(want)) << "pivot path moved";
  }
}

TEST(PivotPath, PaperWindowsTakeThePinnedPivots) {
  const machine::PowerModel power{machine::SocketSpec{}};
  const machine::ClusterSpec cluster{};
  for (const PinnedWindow& want : kPinnedPaperWindows) {
    const dag::Window win = largest_window(paper_trace(want));
    const core::LpFormulation form(win.graph, power, cluster);
    core::LpScheduleOptions options{
        .power_cap = want.socket_cap * win.graph.num_ranks()};
    if (want.energy) {
      // A deadline a quarter above the uncapped makespan keeps the
      // energy LP feasible at a loose cap.
      options.objective = core::LpObjective::kEnergy;
      options.max_makespan = 1.25 * form.unconstrained_makespan();
    }
    const core::BuiltModel built = form.build_model(options);
    const lp::Solution sol = lp::solve_lp(built.model, lp::SimplexOptions{});
    ASSERT_TRUE(sol.optimal()) << row_text(want);

    PinnedWindow got = want;
    got.iterations = sol.stats.iterations;
    got.degenerate_pivots = sol.stats.degenerate_pivots;
    got.refactor_count = sol.stats.refactor_count;
    got.objective_bits = std::bit_cast<std::uint64_t>(sol.objective);
    EXPECT_EQ(row_text(got), row_text(want)) << "pivot path moved";
  }
}

}  // namespace
}  // namespace powerlim
