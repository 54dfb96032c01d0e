// Bounded-variable revised primal simplex over a sparse LU basis.
//
// Two-phase method: phase I drives artificial variables to zero starting
// from a mixed crash basis, phase II optimizes the real objective.
// Anti-cycling is handled by falling back to Bland's rule after a run of
// degenerate pivots, and every optimal finish is re-verified at an
// exactly refactorized point before it is returned.
//
// The basis is a sparse LU factorization (lp/sparse_lu.h: Markowitz-
// style pivot ordering, sparse triangular FTRAN/BTRAN), updated per
// pivot by product-form eta files and refactorized on the
// refactor_interval / eta-growth / stability triggers. Per-iteration
// basis cost is O(nnz), which is what makes 100k+-task traces tractable.
// A basis that will not factorize ends the pass with kNumericalError,
// like drift the verification loop cannot repair; solve_lp() then
// retries once in a high-accuracy mode.
//
// Pricing is Dantzig's rule (largest dual infeasibility, near-ties to
// the lowest index), with Bland's rule as the anti-cycling override
// (bland_trigger). It is the only rule because warm-started and cold
// solves must reach the same optimal vertex; price() in simplex.cpp says
// why. Each pivot chooses exactly the column a full scan would, but runs
// of columns that form a convex chain (a task's configuration shares)
// are priced from a few reduced costs each (lp/chain_pricing.h).
//
// Every accepted solve is independently re-verified in dyadic-rational
// arithmetic downstream (check/certificate.h), so the core is free to be
// fast and the checker - not a second, more conservative engine -
// carries correctness. The inner loops live in lp/kernels.h.
#pragma once

#include <string>
#include <vector>

#include "lp/model.h"
#include "util/deadline.h"

namespace powerlim::lp {

enum class SolveStatus {
  kOptimal,
  kInfeasible,
  kUnbounded,
  kIterationLimit,
  kNumericalError,
  /// The wall-clock budget in SimplexOptions::deadline ran out; the
  /// partial point in Solution::values is not meaningful.
  kDeadlineExceeded,
  /// The CancelToken attached to the deadline was tripped (SIGINT/
  /// SIGTERM or a supervising driver); checked at pivot granularity.
  kCancelled,
};

const char* to_string(SolveStatus status);

struct SimplexOptions {
  /// Hard cap on simplex iterations across both phases; <= 0 means the
  /// solver picks 200 * (rows + cols) + 2000.
  long max_iterations = 0;
  /// Refactorize the basis every this many pivots. Refactoring is the
  /// accuracy lever: product-form updates drift slowly, so this trades
  /// speed for accuracy. solve_lp() retries once in a high-accuracy mode
  /// (every 20 pivots) if the fast pass ends in a numerical failure.
  int refactor_interval = 100;
  /// Smallest pivot magnitude accepted in the ratio test.
  double pivot_tol = 1e-9;
  /// Consecutive degenerate pivots before switching to Bland's rule;
  /// <= 0 engages Bland's rule from the very first pivot (the retry
  /// ladder's "bland" rung).
  int bland_trigger = 100;
  /// Collect per-bucket wall-clock timings (SimplexStats::*_ns). Off by
  /// default: the clock reads cost more than a sparse pivot on small
  /// models, and timings are bench telemetry, not solve output.
  bool collect_timing = false;
  /// Wall-clock budget and cooperative cancellation, observed at pivot
  /// granularity (the cancel flag every pivot, the clock every few
  /// pivots). Default: unlimited. An expired deadline returns
  /// kDeadlineExceeded; a tripped token returns kCancelled.
  util::Deadline deadline;
};

/// Per-solve counters and (optional) per-bucket timings. Counters are
/// deterministic for a given model/options/warm-start and are surfaced
/// into RunReport solver telemetry; the *_ns buckets are wall-clock
/// telemetry (bench only) and are zero unless
/// SimplexOptions::collect_timing was set.
struct SimplexStats {
  long iterations = 0;
  /// Pivots that made no primal progress (step <= 1e-7). A high
  /// count flags degeneracy; it is what arms the Bland's-rule fallback.
  long degenerate_pivots = 0;
  /// Times the basis was refactorized from scratch.
  long refactor_count = 0;
  /// Whether the anti-cycling Bland's-rule fallback engaged at any point.
  bool bland_engaged = false;
  /// Bound flips (entering variable moved lower<->upper, no basis change).
  long bound_flips = 0;
  long ftran_calls = 0;
  long btran_calls = 0;
  /// Peak eta-file length (nonzeros) between refactorizations.
  long eta_nonzeros = 0;
  /// Worst fill ratio nnz(L + U) / nnz(B) across factorizations (1.0 is
  /// fill-free; 0 when no basis was factorized, e.g. a model without
  /// rows).
  double lu_fill_ratio = 0.0;
  /// Wall-clock per bucket, nanoseconds (collect_timing only).
  double ftran_ns = 0.0;
  double btran_ns = 0.0;
  double pricing_ns = 0.0;
  double ratio_ns = 0.0;
  double update_ns = 0.0;
  double factor_ns = 0.0;
};

/// Opaque basis snapshot for warm-started re-solves. Valid only for a
/// model with the *same constraint structure* (identical variables, rows
/// and nonzeros) as the solve that produced it - the cap-sweep pattern,
/// where only bounds change between solves. solve_lp() verifies primal
/// feasibility of the warmed basis under the new bounds and silently
/// falls back to a cold start when it does not hold (e.g. after a cap
/// decrease), so warm starting is always safe.
struct WarmStart {
  std::vector<char> status;  // internal column statuses
  std::vector<int> basis;    // basic column per row
  bool valid() const { return !basis.empty(); }
  void clear() {
    status.clear();
    basis.clear();
  }
};

struct Solution {
  SolveStatus status = SolveStatus::kNumericalError;
  /// Objective in the model's original sense; meaningful when optimal.
  double objective = 0.0;
  /// Per-variable values (size = model.num_variables()).
  std::vector<double> values;
  /// Per-row duals for the minimization form (size = num_constraints()).
  std::vector<double> duals;
  /// Per-variable reduced costs for the minimization form.
  std::vector<double> reduced_costs;
  /// Mirrors stats.iterations (kept for call-site compatibility).
  long iterations = 0;
  /// Max primal violation of the returned point (diagnostic; ~0 when
  /// optimal).
  double primal_infeasibility = 0.0;
  /// Mirrors stats.degenerate_pivots.
  long degenerate_pivots = 0;
  /// Mirrors stats.refactor_count.
  long refactor_count = 0;
  /// Mirrors stats.bland_engaged.
  bool bland_engaged = false;
  /// Full per-solve counter set (see SimplexStats).
  SimplexStats stats;

  bool optimal() const { return status == SolveStatus::kOptimal; }
};

/// Solves the continuous relaxation of `model` (integrality flags are
/// ignored here; see branch_bound.h).
Solution solve_lp(const Model& model, const SimplexOptions& options = {});

/// Warm-started variant: `warm` (if valid) seeds the basis, and on an
/// optimal finish is overwritten with the final basis for the next solve.
Solution solve_lp(const Model& model, const SimplexOptions& options,
                  WarmStart* warm);

}  // namespace powerlim::lp
