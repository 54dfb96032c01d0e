// Pins the simplex pivot path on a fixed corpus of paper window LPs.
//
// Pricing is the hottest loop of the solver, and it is where a "pure
// speed" change can silently pick a different entering column: a
// reordered sum, a changed tie-break or a column visited out of order
// still reaches a certified optimum, but by a different path, and the
// sweep pipeline's warm-vs-cold byte-identity rests on the path. So
// this suite records, per solve, the iteration, degenerate-pivot and
// refactorization counts and the exact bits of the objective, and
// requires every later build to reproduce them.
//
// Corpus: the largest barrier window of a CoMD and a LULESH trace, each
// at two socket caps, under the default anti-cycling trigger and with
// Bland's rule from the first pivot (bland_trigger = 0, the retry
// ladder's bland rung).
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

std::string row_text(const PinnedSolve& p) {
  char buf[200];
  std::snprintf(buf, sizeof buf,
                "{\"%s\", %g, %d, %ld, %ld, %ld, 0x%llx},", p.app,
                p.socket_cap, p.bland_trigger, p.iterations,
                p.degenerate_pivots, p.refactor_count,
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

}  // namespace
}  // namespace powerlim
