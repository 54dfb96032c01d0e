#include "lp/simplex.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <stdexcept>

#include "lp/chain_pricing.h"
#include "lp/kernels.h"
#include "lp/sparse_lu.h"

namespace powerlim::lp {

const char* to_string(SolveStatus status) {
  switch (status) {
    case SolveStatus::kOptimal:
      return "optimal";
    case SolveStatus::kInfeasible:
      return "infeasible";
    case SolveStatus::kUnbounded:
      return "unbounded";
    case SolveStatus::kIterationLimit:
      return "iteration-limit";
    case SolveStatus::kNumericalError:
      return "numerical-error";
    case SolveStatus::kDeadlineExceeded:
      return "deadline-exceeded";
    case SolveStatus::kCancelled:
      return "cancelled";
  }
  return "?";
}

namespace {

/// Eta pivots below this magnitude are refused: a 1/piv that large
/// amplifies drift faster than the refactorization interval can repair,
/// so the update is replaced by an immediate refactorization of the
/// (already-updated) basis.
constexpr double kEtaStabilityTol = 1e-7;

/// Pivot magnitude below which a basis is declared singular.
constexpr double kSingularTol = 1e-12;

/// Primal feasibility tolerance on variable bounds; also the step below
/// which a pivot counts as degenerate.
constexpr double kPrimalTol = 1e-7;

/// Dual feasibility (reduced-cost) tolerance.
constexpr double kDualTol = 1e-7;

/// Refactorize when the eta file exceeds this many nonzeros per row
/// (eta_nnz > limit * m), independent of refactor_interval.
constexpr double kEtaGrowthLimit = 16.0;

/// RAII wall-clock bucket: adds the elapsed nanoseconds to *sink on
/// destruction. A null sink (timing disabled) costs two pointer tests
/// and no clock reads - SimplexOptions::collect_timing stays free for
/// production solves.
class ScopedTimer {
 public:
  ScopedTimer(bool enabled, double* sink) : sink_(enabled ? sink : nullptr) {
    if (sink_ != nullptr) start_ = std::chrono::steady_clock::now();
  }
  ~ScopedTimer() {
    if (sink_ != nullptr) {
      *sink_ += std::chrono::duration<double, std::nano>(
                    std::chrono::steady_clock::now() - start_)
                    .count();
    }
  }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  double* sink_;
  std::chrono::steady_clock::time_point start_;
};

/// The computational form:  A_full x = 0 with per-column bounds, where
/// A_full = [A_structural | -I_slack | sigma*I_artificial]. Row right-hand
/// sides are folded into slack bounds, so b == 0 throughout.
///
/// SimplexCore owns the computational columns, the basis factorization,
/// the two-phase driver, warm starts, pricing, the ratio test, the
/// anti-cycling state machine, and deadline/cancellation plumbing.
class SimplexCore {
 public:
  SimplexCore(const Model& model, const SimplexOptions& opt)
      : model_(model),
        opt_(opt),
        m_(model.num_constraints()),
        n_(model.num_variables()) {
    build_columns();
    chains_ = chain::find_chains(n_, col_start_.data(), col_row_.data(),
                                 col_val_.data(), lb_.data(), ub_.data(),
                                 cost_.data(), kPrimalTol);
    chain_scratch_.resize(chains_.max_size);
  }

  Solution run(WarmStart* warm = nullptr) {
    // An already-dead deadline exits before any setup work: the retry
    // ladder relies on exhausted budgets failing in O(1).
    const util::StopReason pre = opt_.deadline.stop_reason();
    if (pre != util::StopReason::kNone) {
      return finish(stop_status(pre), warm);
    }
    if (m_ == 0) {
      return solve_unconstrained();
    }
    if (opt_.bland_trigger <= 0) {
      bland_ = true;
      bland_used_ = true;
    }
    max_iter_ = opt_.max_iterations > 0
                    ? opt_.max_iterations
                    : 200 * static_cast<long>(m_ + n_) + 2000;

    const bool warmed = warm != nullptr && try_warm_init(*warm);
    if (!warmed) {
      const SolveStatus p1 = phase_one();
      if (p1 != SolveStatus::kOptimal) return finish(p1, warm);
    }

    // Phase II with drift verification: after the loop converges,
    // refactorize to recompute the point *exactly*; a catastrophic pivot
    // (tiny pivot element accepted by the ratio test) shows up here as
    // basics out of bounds or as newly improving candidates, both of
    // which we repair instead of returning a corrupted answer.
    for (int attempt = 0;; ++attempt) {
      if (!iterate(cost_)) return finish(stop_status_, warm);
      if (unbounded_) return finish(SolveStatus::kUnbounded, warm);
      if (!refactor()) return finish(SolveStatus::kNumericalError, warm);
      if (!basics_within_bounds()) {
        if (attempt >= 2) return finish(SolveStatus::kNumericalError, warm);
        const SolveStatus p1 = phase_one();  // full cold restart
        if (p1 != SolveStatus::kOptimal) return finish(p1, warm);
        continue;
      }
      compute_duals(cost_);
      if (price(cost_) < 0) break;  // optimal at the exact point
      if (attempt >= 4) return finish(SolveStatus::kNumericalError, warm);
    }
    return finish(SolveStatus::kOptimal, warm);
  }

 private:
  // ---- basis ---------------------------------------------------------------
  //
  // The basis is a sparse LU factorization (sparse_lu.h) plus a
  // product-form eta file, so every per-pivot basis step costs O(nnz)
  // rather than O(m^2). The exactness story rests on the drift-
  // verification loop in run() and on the downstream certificate
  // checker. A refactorization that finds the basis singular returns
  // false, and the pass ends with kNumericalError.

  /// Factors basis_ afresh, wiping the eta file; false when the basis is
  /// singular (no pivot above kSingularTol in some column).
  bool factor_current_basis() {
    if (!lu_.factor(col_start_.data(), col_row_.data(), col_val_.data(),
                    basis_.data(), m_, kSingularTol)) {
      return false;
    }
    stats_.lu_fill_ratio = std::max(stats_.lu_fill_ratio, lu_.fill_ratio());
    return true;
  }

  /// Rebuilds the factorization exactly from basis_ and recomputes the
  /// basic values from the nonbasic point. Resets pivots_since_refactor_
  /// and counts into refactor_count_. False on a singular basis.
  bool refactor() {
    ScopedTimer t(opt_.collect_timing, &stats_.factor_ns);
    pivots_since_refactor_ = 0;
    ++refactor_count_;
    if (!factor_current_basis()) return false;
    // Recompute basic values exactly: x_B = B^{-1} * (0 - N x_N). The
    // eta file is empty right after factor(), so this is a pure LU solve.
    rhs_.assign(m_, 0.0);
    for (std::size_t j = 0; j < num_cols_; ++j) {
      if (status_[j] == VarStatus::kBasic) continue;
      const double v = xval_[j];
      if (v == 0.0) continue;
      kernels::scatter_axpy(col_start_[j + 1] - col_start_[j], -v,
                            col_row_.data() + col_start_[j],
                            col_val_.data() + col_start_[j], rhs_.data());
    }
    lu_.ftran(rhs_.data());
    for (std::size_t p = 0; p < m_; ++p) xval_[basis_[p]] = rhs_[p];
    return true;
  }

  /// True when the factorization wants a rebuild before the next pivot:
  /// the refactor interval ran out or the eta file outgrew its budget.
  bool should_refactor() const {
    return pivots_since_refactor_ >= opt_.refactor_interval ||
           static_cast<double>(lu_.eta_nonzeros()) >
               kEtaGrowthLimit * static_cast<double>(m_);
  }

  /// y_ := duals for `cost` at the current basis (indexed by row):
  /// y^T = c_B^T B^{-1}, i.e. y = B^{-T} c_B.
  void compute_duals(const std::vector<double>& cost) {
    ScopedTimer t(opt_.collect_timing, &stats_.btran_ns);
    ++stats_.btran_calls;
    y_.resize(m_);
    for (std::size_t p = 0; p < m_; ++p) y_[p] = cost[basis_[p]];
    lu_.btran(y_.data());
  }

  /// w_ := B^{-1} A_q (indexed by basis position) and wnz_ := the sorted
  /// positions where w_ is exactly nonzero.
  void ftran_entering(int q) {
    ScopedTimer t(opt_.collect_timing, &stats_.ftran_ns);
    ++stats_.ftran_calls;
    // Clear only last iteration's support instead of O(m) memset.
    if (w_.size() != m_) {
      w_.assign(m_, 0.0);
    } else {
      for (const int i : wnz_) w_[i] = 0.0;
    }
    for (std::size_t k = col_start_[q]; k < col_start_[q + 1]; ++k) {
      w_[col_row_[k]] += col_val_[k];
    }
    lu_.ftran(w_.data());
    wnz_.clear();
    for (std::size_t i = 0; i < m_; ++i) {
      if (w_[i] != 0.0) wnz_.push_back(static_cast<int>(i));
    }
  }

  /// Absorbs the pivot that just put the entering column at basis
  /// position r; w_/wnz_ still hold the entering column's FTRAN result.
  /// False when the pivot forced a refactorization that found the basis
  /// singular.
  bool pivot_update(int r) {
    ScopedTimer t(opt_.collect_timing, &stats_.update_ns);
    if (lu_.push_eta(r, w_.data(), wnz_.data(), wnz_.size(),
                     kEtaStabilityTol)) {
      stats_.eta_nonzeros = std::max(
          stats_.eta_nonzeros, static_cast<long>(lu_.eta_nonzeros()));
      return true;
    }
    // Pivot too small to absorb as an eta: the basis already changed,
    // so rebuild the factorization before anyone ftran/btrans it.
    return refactor();
  }

  // ---- pricing -------------------------------------------------------------

  /// Chooses the entering column, or -1 at optimality: the column with
  /// the largest dual infeasibility (Dantzig's rule; near-ties keep the
  /// earlier index, see kTieRel), or under Bland's rule (engaged by
  /// note_progress()) the first eligible column.
  ///
  /// Dantzig is the only rule. Under degenerate alternative optima,
  /// partial pricing (candidate lists, Devex) can reach a different
  /// optimal vertex from a warm start than from a cold one, and the
  /// sweep pipeline requires warm and cold solves to agree
  /// byte-for-byte: serial sweeps warm-start, while parallel, distributed
  /// and daemon workers solve cold. A full Dantzig scan converges to the
  /// same vertex from either start.
  ///
  /// Pricing is the largest share of a pivot on window LPs. Columns that
  /// form a convex chain (lp/chain_pricing.h: a task's configuration
  /// shares) are priced by chain::walk, which evaluates a few reduced
  /// costs per chain and skips the rest only where a certified bound
  /// shows they cannot change the choice. It runs where the chain's
  /// reduced cost is linear: under Dantzig's rule, in phase I, and in
  /// phase II when the chain's costs are zero. Every other column is
  /// scanned on raw pointers and scalars read once per call, the
  /// slack/artificial singleton columns in their own loop free of
  /// column-extent reads. Columns are offered in ascending order and each
  /// reduced cost is reduced_cost()'s arithmetic, so the choice is
  /// bit-for-bit that of a column-by-column scan.
  int price(const std::vector<double>& cost) {
    ScopedTimer t(opt_.collect_timing, &stats_.pricing_ns);
    const VarStatus* const status = status_.data();
    const double* const lb = lb_.data();
    const double* const ub = ub_.data();
    const double* const c = cost.data();
    const double* const y = y_.data();
    const std::size_t* const start = col_start_.data();
    const int* const row = col_row_.data();
    const double* const val = col_val_.data();
    const bool bland = bland_;

    chain::Incumbent inc;
    inc.viol = kDualTol;
    // Basic columns never enter, nor do fixed ones unless free.
    const auto eligible = [&](std::size_t j) {
      const VarStatus st = status[j];
      if (st == VarStatus::kBasic) return false;
      return !(ub[j] - lb[j] < kPrimalTol && st != VarStatus::kFree);
    };
    // Offers column j with reduced cost d; true when Bland's rule takes
    // it outright.
    const auto offer = [&](std::size_t j, double d) {
      const VarStatus st = status[j];
      const double viol = st == VarStatus::kAtLower   ? -d
                          : st == VarStatus::kAtUpper ? d
                                                      : std::abs(d);
      if (viol <= kDualTol) return false;
      if (bland) return true;
      inc.offer(static_cast<int>(j), viol, kDualTol);
      return false;
    };
    // The structural columns: chains walked, every other column scanned.
    // The scan is written out twice rather than shared through a helper
    // lambda: compiled out of line, it made Bland-pass pricing up to
    // twice as slow.
    std::size_t j = 0;
    if (!bland) {
      const bool phase_two = &cost == &cost_;
      for (const chain::Chain& ch : chains_.chains) {
        if (phase_two && !ch.zero_cost) continue;  // scanned below
        for (; j < static_cast<std::size_t>(ch.begin); ++j) {
          if (!eligible(j)) continue;
          offer(j, c[j] - kernels::gather_dot(start[j + 1] - start[j],
                                              row + start[j], val + start[j],
                                              y));
        }
        const std::size_t nnz = ch.nnz;
        const auto value = [&](int k) {
          const std::size_t col = ch.begin + k;
          return c[col] - kernels::gather_dot(nnz, row + start[col],
                                              val + start[col], y);
        };
        chain::walk(chain::classify(chains_, ch, y), ch.begin, ch.size,
                    status + ch.begin, kDualTol, value, inc, chain_scratch_);
        j = ch.begin + ch.size;
      }
    }
    for (; j < slack_begin_; ++j) {
      if (!eligible(j)) continue;
      const double d =
          c[j] - kernels::gather_dot(start[j + 1] - start[j], row + start[j],
                                     val + start[j], y);
      if (offer(j, d)) return static_cast<int>(j);
    }
    // Slack and artificial columns hold one entry each, stored in column
    // order after the structural nonzeros (build_columns()).
    const std::size_t first_single = start[slack_begin_];
    for (std::size_t j = slack_begin_; j < num_cols_; ++j) {
      if (!eligible(j)) continue;
      const std::size_t k = first_single + (j - slack_begin_);
      const double d = c[j] - kernels::gather_dot(1, row + k, val + k, y);
      if (offer(j, d)) return static_cast<int>(j);
    }
    return inc.best;
  }

  // ---- setup -------------------------------------------------------------

  void build_columns() {
    const std::size_t total = n_ + m_ + m_;  // structural, slack, artificial
    col_start_.assign(total + 1, 0);
    lb_.resize(total);
    ub_.resize(total);
    cost_.assign(total, 0.0);
    phase1_cost_.assign(total, 0.0);

    const double sense_mult =
        model_.sense() == Sense::kMaximize ? -1.0 : 1.0;
    for (std::size_t j = 0; j < n_; ++j) {
      lb_[j] = model_.variable_lb(static_cast<int>(j));
      ub_[j] = model_.variable_ub(static_cast<int>(j));
      cost_[j] = sense_mult * model_.objective_coeff(static_cast<int>(j));
    }
    // Build CSC for structural columns from the model's row storage.
    std::vector<std::size_t> count(n_, 0);
    for (std::size_t i = 0; i < m_; ++i) {
      const Model::RowView r = model_.row(static_cast<int>(i));
      for (std::size_t k = 0; k < r.size; ++k) ++count[r.idx[k]];
    }
    for (std::size_t j = 0; j < n_; ++j) {
      col_start_[j + 1] = col_start_[j] + count[j];
    }
    // Slack and artificial columns are singletons.
    for (std::size_t j = n_; j < total; ++j) {
      col_start_[j + 1] = col_start_[j] + 1;
    }
    col_row_.resize(col_start_[total]);
    col_val_.resize(col_start_[total]);
    std::vector<std::size_t> fill(n_, 0);
    for (std::size_t i = 0; i < m_; ++i) {
      const Model::RowView r = model_.row(static_cast<int>(i));
      for (std::size_t k = 0; k < r.size; ++k) {
        const int j = r.idx[k];
        const std::size_t pos = col_start_[j] + fill[j]++;
        col_row_[pos] = static_cast<int>(i);
        col_val_[pos] = r.coeff[k];
      }
    }
    slack_begin_ = n_;
    art_begin_ = n_ + m_;
    for (std::size_t i = 0; i < m_; ++i) {
      // Slack column: a'x - s = 0 with s in [row_lb, row_ub].
      col_row_[col_start_[slack_begin_ + i]] = static_cast<int>(i);
      col_val_[col_start_[slack_begin_ + i]] = -1.0;
      lb_[slack_begin_ + i] = model_.row_lb(static_cast<int>(i));
      ub_[slack_begin_ + i] = model_.row_ub(static_cast<int>(i));
      // Artificial sign is fixed in initialize_point().
      col_row_[col_start_[art_begin_ + i]] = static_cast<int>(i);
      col_val_[col_start_[art_begin_ + i]] = 1.0;
      lb_[art_begin_ + i] = 0.0;
      ub_[art_begin_ + i] = kInfinity;
      phase1_cost_[art_begin_ + i] = 1.0;
    }
    num_cols_ = total;
  }

  /// Places structural and slack variables at their nearest finite bound
  /// (0 for free variables), then sizes the artificial basis to absorb the
  /// residual of every row.
  void initialize_point() {
    // Re-arm the artificials. A previous phase I (or a warm init) pinned
    // their bounds to [0,0] and possibly flipped their column signs; a
    // restart that kept those pins would walk a different pivot path than
    // a fresh cold solve, and the drift-verification loop depends on its
    // cold restart reproducing the fresh-solve result exactly.
    for (std::size_t k = 0; k < m_; ++k) {
      lb_[art_begin_ + k] = 0.0;
      ub_[art_begin_ + k] = kInfinity;
      col_val_[col_start_[art_begin_ + k]] = 1.0;
    }
    xval_.assign(num_cols_, 0.0);
    status_.assign(num_cols_, VarStatus::kAtLower);
    for (std::size_t j = 0; j < art_begin_; ++j) {
      const bool lo = is_finite_bound(lb_[j]);
      const bool hi = is_finite_bound(ub_[j]);
      if (lo && hi) {
        // Prefer the bound with smaller magnitude; ties go low.
        if (std::abs(ub_[j]) < std::abs(lb_[j])) {
          status_[j] = VarStatus::kAtUpper;
          xval_[j] = ub_[j];
        } else {
          status_[j] = VarStatus::kAtLower;
          xval_[j] = lb_[j];
        }
      } else if (lo) {
        status_[j] = VarStatus::kAtLower;
        xval_[j] = lb_[j];
      } else if (hi) {
        status_[j] = VarStatus::kAtUpper;
        xval_[j] = ub_[j];
      } else {
        status_[j] = VarStatus::kFree;
        xval_[j] = 0.0;
      }
    }
    // Row activities at the initial nonbasic point (slacks not counted).
    std::vector<double> activity(m_, 0.0);
    for (std::size_t j = 0; j < slack_begin_; ++j) {
      if (xval_[j] == 0.0) continue;
      for (std::size_t k = col_start_[j]; k < col_start_[j + 1]; ++k) {
        activity[col_row_[k]] += col_val_[k] * xval_[j];
      }
    }
    // Mixed crash basis: rows whose activity already fits inside the slack
    // bounds start with their slack basic (feasible, no phase-1 work);
    // only violated rows get an artificial. This typically leaves phase I
    // with a handful of pivots instead of one per row.
    basis_.resize(m_);
    for (std::size_t i = 0; i < m_; ++i) {
      const std::size_t slack = slack_begin_ + i;
      const std::size_t art = art_begin_ + i;
      if (activity[i] >= lb_[slack] - 1e-12 &&
          activity[i] <= ub_[slack] + 1e-12) {
        // Slack basic at the row activity; artificial pinned at zero.
        basis_[i] = static_cast<int>(slack);
        status_[slack] = VarStatus::kBasic;
        xval_[slack] = activity[i];
        lb_[art] = ub_[art] = 0.0;
        xval_[art] = 0.0;
        status_[art] = VarStatus::kAtLower;
      } else {
        // Slack at its nearest bound; artificial absorbs the residual.
        const double sbar =
            activity[i] < lb_[slack] ? lb_[slack] : ub_[slack];
        status_[slack] = activity[i] < lb_[slack] ? VarStatus::kAtLower
                                                  : VarStatus::kAtUpper;
        xval_[slack] = sbar;
        const double resid = activity[i] - sbar;  // a'x - s
        const double sign = resid < 0.0 ? -1.0 : 1.0;
        col_val_[col_start_[art]] = -sign;  // so that art = |resid| >= 0
        basis_[i] = static_cast<int>(art);
        status_[art] = VarStatus::kBasic;
        xval_[art] = std::abs(resid);
      }
    }
    pivots_since_refactor_ = 0;
    // A signed diagonal of +-1 entries: it factors with zero fill and is
    // never singular.
    factor_current_basis();
  }

  /// Cold start: crash basis + phase I. Returns kOptimal when a feasible
  /// basis was reached.
  SolveStatus phase_one() {
    initialize_point();
    if (!iterate(phase1_cost_)) return stop_status_;
    double art_sum = 0.0;
    for (std::size_t k = 0; k < m_; ++k) art_sum += xval_[art_begin_ + k];
    if (art_sum > 1e-6) return SolveStatus::kInfeasible;
    // Pin artificials at zero so phase II can never reuse them.
    for (std::size_t k = 0; k < m_; ++k) {
      lb_[art_begin_ + k] = 0.0;
      ub_[art_begin_ + k] = 0.0;
      xval_[art_begin_ + k] = 0.0;
    }
    return SolveStatus::kOptimal;
  }

  /// All basic variables within their bounds (called right after an exact
  /// refactorization).
  bool basics_within_bounds() const {
    for (std::size_t i = 0; i < m_; ++i) {
      const int b = basis_[i];
      if (xval_[b] < lb_[b] - 10 * kPrimalTol ||
          xval_[b] > ub_[b] + 10 * kPrimalTol) {
        return false;
      }
    }
    return true;
  }

  /// Seeds statuses/basis from a snapshot of a structurally identical
  /// model and verifies primal feasibility under the *current* bounds.
  /// Returns false (leaving state untouched for a cold start) when the
  /// snapshot does not fit or the warmed point is infeasible.
  bool try_warm_init(const WarmStart& warm) {
    if (!warm.valid() || warm.status.size() != num_cols_ ||
        warm.basis.size() != m_) {
      return false;
    }
    // Reject bases containing artificials: their column signs are
    // solve-specific.
    for (int b : warm.basis) {
      if (b < 0 || b >= static_cast<int>(num_cols_) ||
          b >= static_cast<int>(art_begin_)) {
        return false;
      }
    }
    status_.resize(num_cols_);
    for (std::size_t j = 0; j < num_cols_; ++j) {
      status_[j] = static_cast<VarStatus>(warm.status[j]);
    }
    basis_.assign(warm.basis.begin(), warm.basis.end());
    // Artificials stay pinned out of the problem.
    for (std::size_t k = 0; k < m_; ++k) {
      lb_[art_begin_ + k] = 0.0;
      ub_[art_begin_ + k] = 0.0;
      status_[art_begin_ + k] = VarStatus::kAtLower;
    }
    // Nonbasic values snap to the (possibly changed) bounds.
    xval_.assign(num_cols_, 0.0);
    for (std::size_t j = 0; j < num_cols_; ++j) {
      switch (status_[j]) {
        case VarStatus::kAtLower:
          if (!is_finite_bound(lb_[j])) return false;
          xval_[j] = lb_[j];
          break;
        case VarStatus::kAtUpper:
          if (!is_finite_bound(ub_[j])) return false;
          xval_[j] = ub_[j];
          break;
        case VarStatus::kFree:
          xval_[j] = 0.0;
          break;
        case VarStatus::kBasic:
          break;
      }
    }
    if (!refactor()) return false;  // rebuilds the factors, computes x_B
    // The warmed point must be primal feasible for a pure phase-II solve.
    for (std::size_t i = 0; i < m_; ++i) {
      const int b = basis_[i];
      if (xval_[b] < lb_[b] - kPrimalTol ||
          xval_[b] > ub_[b] + kPrimalTol) {
        return false;
      }
    }
    return true;
  }

  // ---- inner loop ----------------------------------------------------------

  static SolveStatus stop_status(util::StopReason reason) {
    return reason == util::StopReason::kCancelled
               ? SolveStatus::kCancelled
               : SolveStatus::kDeadlineExceeded;
  }

  /// Runs the simplex loop to optimality for the given cost vector.
  /// Returns false if the iteration limit / deadline / cancellation hit
  /// or the basis would not factorize (stop_status_ says which). Sets
  /// unbounded_ when the problem is unbounded for this cost (only
  /// possible in phase II).
  bool iterate(const std::vector<double>& cost) {
    degenerate_run_ = 0;
    unbounded_ = false;
    for (;;) {
      if (iterations_ >= max_iter_) {
        stop_status_ = SolveStatus::kIterationLimit;
        return false;
      }
      // Cancellation is one relaxed atomic load, checked every pivot;
      // the clock read is amortized over 16 pivots.
      if (opt_.deadline.cancelled()) {
        stop_status_ = SolveStatus::kCancelled;
        return false;
      }
      if ((iterations_ & 15) == 0 && opt_.deadline.expired()) {
        stop_status_ = SolveStatus::kDeadlineExceeded;
        return false;
      }
      ++iterations_;
      if (should_refactor() && !refactor()) {
        stop_status_ = SolveStatus::kNumericalError;
        return false;
      }

      compute_duals(cost);
      const int q = price(cost);
      if (q < 0) return true;  // optimal for this cost

      const double dq = reduced_cost(cost, q);
      double dir = 0.0;
      switch (status_[q]) {
        case VarStatus::kAtLower:
          dir = 1.0;
          break;
        case VarStatus::kAtUpper:
          dir = -1.0;
          break;
        case VarStatus::kFree:
          dir = dq < 0.0 ? 1.0 : -1.0;
          break;
        case VarStatus::kBasic:
          throw std::logic_error("basic column priced");
      }

      ftran_entering(q);  // w_ = Binv * A_q, wnz_ = its support

      // Ratio test: the entering variable moves by t >= 0 in direction dir;
      // basic variable at position i moves by -t * dir * w_[i].
      double t_best = kInfinity;
      int leave_pos = -1;
      double leave_piv = 0.0;
      {
        ScopedTimer rt(opt_.collect_timing, &stats_.ratio_ns);
        for (const int i : wnz_) {
          const double wd = dir * w_[i];
          const int b = basis_[i];
          double t_i = kInfinity;
          if (wd > opt_.pivot_tol) {
            if (is_finite_bound(lb_[b])) t_i = (xval_[b] - lb_[b]) / wd;
          } else if (wd < -opt_.pivot_tol) {
            if (is_finite_bound(ub_[b])) t_i = (ub_[b] - xval_[b]) / (-wd);
          } else {
            continue;
          }
          if (t_i < -kPrimalTol) t_i = 0.0;
          t_i = std::max(t_i, 0.0);
          const bool better =
              bland_ ? (t_i < t_best - 1e-12 ||
                        (leave_pos >= 0 && t_i <= t_best + 1e-12 &&
                         basis_[i] < basis_[leave_pos]))
                     : (t_i < t_best - 1e-12 ||
                        (t_i <= t_best + 1e-12 &&
                         std::abs(w_[i]) >
                             std::abs(leave_piv) * (1.0 + kTieRel)));
          if (leave_pos < 0 ? t_i < t_best : better) {
            t_best = t_i;
            leave_pos = i;
            leave_piv = w_[i];
          }
        }
      }

      // Bound-flip distance of the entering variable itself.
      double t_flip = kInfinity;
      if (is_finite_bound(lb_[q]) && is_finite_bound(ub_[q])) {
        t_flip = ub_[q] - lb_[q];
      }

      const double t = std::min(t_best, t_flip);
      if (t >= kInfinity / 2) {
        unbounded_ = true;
        return true;
      }

      // Move the basic variables.
      if (t > 0.0) {
        for (const int i : wnz_) {
          if (w_[i] != 0.0) xval_[basis_[i]] -= t * dir * w_[i];
        }
      }

      if (t_flip <= t_best) {
        // Bound flip: no basis change.
        status_[q] = status_[q] == VarStatus::kAtLower ? VarStatus::kAtUpper
                                                       : VarStatus::kAtLower;
        xval_[q] =
            status_[q] == VarStatus::kAtLower ? lb_[q] : ub_[q];
        ++stats_.bound_flips;
        note_progress(t);
        continue;
      }

      // Pivot: q enters at position leave_pos, b leaves to a bound.
      const int b = basis_[leave_pos];
      const double wd = dir * w_[leave_pos];
      if (wd > 0.0) {
        status_[b] = VarStatus::kAtLower;
        xval_[b] = lb_[b];
      } else {
        status_[b] = VarStatus::kAtUpper;
        xval_[b] = ub_[b];
      }
      xval_[q] = nonbasic_value(q) + dir * t;
      status_[q] = VarStatus::kBasic;
      basis_[leave_pos] = q;
      if (!pivot_update(leave_pos)) {
        stop_status_ = SolveStatus::kNumericalError;
        return false;
      }
      ++pivots_since_refactor_;
      note_progress(t);
    }
  }

  double nonbasic_value(int j) const {
    // Value the entering variable had while nonbasic. For free variables
    // this is the stored value (0 until first entry).
    return xval_[j];
  }

  void note_progress(double step) {
    if (step > kPrimalTol) {
      degenerate_run_ = 0;
      if (opt_.bland_trigger > 0) bland_ = false;
    } else {
      ++degenerate_pivots_;
      if (++degenerate_run_ >= opt_.bland_trigger) {
        bland_ = true;
        bland_used_ = true;
      }
    }
  }

  double reduced_cost(const std::vector<double>& cost, int j) const {
    return cost[j] - kernels::gather_dot(col_start_[j + 1] - col_start_[j],
                                         col_row_.data() + col_start_[j],
                                         col_val_.data() + col_start_[j],
                                         y_.data());
  }

  // ---- result --------------------------------------------------------------

  Solution solve_unconstrained() {
    // No constraints: each variable independently goes to its best bound.
    Solution sol;
    sol.values.resize(n_);
    const double mult = model_.sense() == Sense::kMaximize ? -1.0 : 1.0;
    for (std::size_t j = 0; j < n_; ++j) {
      const double c = mult * model_.objective_coeff(static_cast<int>(j));
      double v;
      if (c > 0) {
        if (!is_finite_bound(model_.variable_lb(static_cast<int>(j)))) {
          sol.status = SolveStatus::kUnbounded;
          return sol;
        }
        v = model_.variable_lb(static_cast<int>(j));
      } else if (c < 0) {
        if (!is_finite_bound(model_.variable_ub(static_cast<int>(j)))) {
          sol.status = SolveStatus::kUnbounded;
          return sol;
        }
        v = model_.variable_ub(static_cast<int>(j));
      } else {
        const double lo = model_.variable_lb(static_cast<int>(j));
        v = is_finite_bound(lo) ? lo : 0.0;
        if (!is_finite_bound(lo) &&
            is_finite_bound(model_.variable_ub(static_cast<int>(j)))) {
          v = model_.variable_ub(static_cast<int>(j));
        }
      }
      sol.values[j] = v;
    }
    sol.status = SolveStatus::kOptimal;
    sol.objective = model_.objective_value(sol.values);
    sol.reduced_costs.assign(n_, 0.0);
    for (std::size_t j = 0; j < n_; ++j) {
      sol.reduced_costs[j] = mult * model_.objective_coeff(static_cast<int>(j));
    }
    sol.stats = stats_;
    return sol;
  }

  Solution finish(SolveStatus status, WarmStart* warm = nullptr) {
    Solution sol;
    sol.status = status;
    sol.iterations = iterations_;
    sol.degenerate_pivots = degenerate_pivots_;
    sol.refactor_count = refactor_count_;
    sol.bland_engaged = bland_used_;
    // Deadline/cancel exits can land here before initialize_point()
    // sized xval_ (the whole point of the O(1) pre-check); pad with
    // zeros instead of walking off the end of an empty vector.
    const std::size_t have = std::min(xval_.size(), n_);
    sol.values.assign(xval_.begin(), xval_.begin() + have);
    sol.values.resize(n_, 0.0);
    if (status == SolveStatus::kOptimal) {
      sol.objective = model_.objective_value(sol.values);
      compute_duals(cost_);
      sol.duals = y_;
      sol.reduced_costs.resize(n_);
      for (std::size_t j = 0; j < n_; ++j) {
        sol.reduced_costs[j] = reduced_cost(cost_, static_cast<int>(j));
      }
      sol.primal_infeasibility = model_.max_violation(sol.values);
      if (sol.primal_infeasibility > 1e-5) {
        sol.status = SolveStatus::kNumericalError;
      }
    }
    // Export the basis only for a verified-optimal finish; a poisoned
    // snapshot would sabotage the caller's next warm solve.
    if (warm != nullptr) {
      if (sol.status == SolveStatus::kOptimal) {
        warm->status.assign(num_cols_, 0);
        for (std::size_t j = 0; j < num_cols_; ++j) {
          warm->status[j] = static_cast<char>(status_[j]);
        }
        warm->basis.assign(basis_.begin(), basis_.end());
      } else {
        warm->clear();
      }
    }
    stats_.iterations = iterations_;
    stats_.degenerate_pivots = degenerate_pivots_;
    stats_.refactor_count = refactor_count_;
    stats_.bland_engaged = bland_used_;
    sol.stats = stats_;
    return sol;
  }

  const Model& model_;
  SimplexOptions opt_;
  std::size_t m_;
  std::size_t n_;
  std::size_t num_cols_ = 0;
  std::size_t slack_begin_ = 0;
  std::size_t art_begin_ = 0;

  // Column-compressed matrix over all columns.
  std::vector<std::size_t> col_start_;
  std::vector<int> col_row_;
  std::vector<double> col_val_;

  std::vector<double> lb_, ub_, cost_, phase1_cost_;
  std::vector<double> xval_;
  std::vector<VarStatus> status_;
  std::vector<int> basis_;
  std::vector<double> y_, w_;
  std::vector<int> wnz_;  // support of w_ (sorted basis positions)
  chain::ChainSet chains_;
  chain::Scratch chain_scratch_;
  SparseLu lu_;
  std::vector<double> rhs_;  // refactor()'s basic-value solve

  SimplexStats stats_;
  long iterations_ = 0;
  long max_iter_ = 0;
  int pivots_since_refactor_ = 0;
  int degenerate_run_ = 0;
  long degenerate_pivots_ = 0;
  long refactor_count_ = 0;
  bool bland_ = false;
  bool bland_used_ = false;
  bool unbounded_ = false;
  /// Why iterate() returned false (iteration limit, deadline, cancel,
  /// singular basis).
  SolveStatus stop_status_ = SolveStatus::kIterationLimit;
};

}  // namespace

Solution solve_lp(const Model& model, const SimplexOptions& options) {
  return solve_lp(model, options, nullptr);
}

Solution solve_lp(const Model& model, const SimplexOptions& options,
                  WarmStart* warm) {
  Solution sol = SimplexCore(model, options).run(warm);
  if (sol.status == SolveStatus::kNumericalError &&
      options.deadline.stop_reason() == util::StopReason::kNone) {
    // Numerical trouble (drift the verification loop could not repair,
    // or a basis that would not factorize): retry once in high-accuracy
    // mode, refactoring far more often and with stricter pivots.
    SimplexOptions retry = options;
    retry.refactor_interval = 20;
    retry.pivot_tol = std::max(options.pivot_tol, 1e-8);
    // Retry cold: the failed pass cleared `warm`, and a cleared warm
    // start is ignored.
    sol = SimplexCore(model, retry).run(warm);
  }
  return sol;
}

}  // namespace powerlim::lp
