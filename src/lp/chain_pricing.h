// Convex-chain pricing: Dantzig's entering-column choice over a run of
// structural columns that trace a convex chain, from a few reduced costs
// instead of all of them.
//
// In a window LP (core/lp_formulation.h) share column k of a task is
// (-d_k, 1, p_k, ..., p_k) on the task's duration, convexity and power
// rows, and its (time, power) points lie on a convex frontier. Priced
// under a zero cost, the at-lower dual infeasibility of column k is
//
//   g_k = y'a_k = const + alpha * A_k + beta * B_k,
//
// where alpha and beta sum the duals over the rows carrying the two
// varying sequences A and B. g is linear in the point (A_k, B_k), so
// along a chain that turns one way it rises at most once and falls at
// most once: one peak, one valley, monotone, or flat.
//
// SimplexCore::price (simplex.cpp) detects chains once per solve
// (find_chains), classifies each chain at each pricing call (classify),
// and lets walk() decide which reduced costs to evaluate. walk() offers
// values to the same sequential comparator as the full scan, and skips a
// column only when a certified bound proves that offering it could not
// change the comparator's final state, so the chosen column is bit for
// bit the full scan's. DESIGN.md section 5 "Pricing" gives the argument.
#pragma once

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

namespace powerlim::lp {

enum class VarStatus : char { kAtLower, kAtUpper, kBasic, kFree };

/// Relative margin under which two pricing violations / ratio-test pivot
/// magnitudes are treated as tied, with the earlier index winning.
/// Symmetric traces produce columns whose reduced costs are *exactly*
/// equal in real arithmetic; warm and cold pivot paths compute them
/// with different rounding, so a strict comparison would break such
/// ties by +-1ulp noise and send otherwise-identical solves to
/// different optimal bases. The sweep pipeline's byte-identity contract
/// (warm serial == cold worker) needs tie-breaks that noise cannot flip.
constexpr double kTieRel = 1e-9;

namespace chain {

/// Dantzig's comparator state: the column with the largest dual
/// infeasibility offered so far, where a later column must beat the
/// incumbent by the kTieRel margin (near-ties keep the earlier index).
struct Incumbent {
  int best = -1;
  /// The incumbent's violation; unused while best < 0.
  double viol = 0.0;

  /// What a later column's violation must exceed to become the incumbent.
  double bar(double dual_tol) const {
    return best < 0 ? dual_tol : viol * (1.0 + kTieRel);
  }
  void offer(int j, double v, double dual_tol) {
    if (v <= dual_tol) return;
    if (best < 0 || v > viol * (1.0 + kTieRel)) {
      best = j;
      viol = v;
    }
  }
};

/// A chain: columns [begin, begin + size) with one row pattern of nnz
/// rows, the same finite bounds, and entries that are constant per row
/// except on the rows of two sequences A (strictly monotone) and B whose
/// points (A_k, B_k) turn one way.
struct Chain {
  int begin = 0;
  int size = 0;
  int nnz = 0;
  /// Offsets into ChainSet::rows: A rows [rows_begin, b_begin), B rows
  /// [b_begin, c_begin), constant rows [c_begin, rows_end).
  int rows_begin = 0;
  int b_begin = 0;
  int c_begin = 0;
  int rows_end = 0;
  /// Offset of the size - 1 slopes (B_{k+1} - B_k) / (A_{k+1} - A_k) in
  /// ChainSet::slopes (none when the chain has no B row).
  int slopes_begin = 0;
  /// Largest |A_k| and |B_k| over the chain.
  double a_max = 0.0;
  double b_max = 0.0;
  /// +1 when A increases along the chain, -1 when it decreases.
  int a_dir = 1;
  /// +1 when the slopes increase along the chain (a left turn), -1 when
  /// they decrease.
  int turn = 1;
  /// Every column's phase II cost is zero, so its reduced cost is linear.
  bool zero_cost = false;
};

struct ChainSet {
  std::vector<Chain> chains;  // ascending begin
  std::vector<int> rows;
  /// |entry| of each constant row, parallel to `rows`.
  std::vector<double> abs_val;
  std::vector<double> slopes;
  int max_size = 0;
};

namespace detail {

/// Sign of the turn P_a -> P_b -> P_c, or 0 when the floating-point
/// filter cannot certify it (Shewchuk's orient2d with its first error
/// bound; inputs are kept away from underflow by find_chains).
inline int orientation(double ax, double ay, double bx, double by,
                       double cx, double cy) {
  const double left = (ax - cx) * (by - cy);
  const double right = (ay - cy) * (bx - cx);
  const double det = left - right;
  double sum = 0.0;
  if (left > 0.0) {
    if (right <= 0.0) return det > 0.0 ? 1 : (det < 0.0 ? -1 : 0);
    sum = left + right;
  } else if (left < 0.0) {
    if (right >= 0.0) return det > 0.0 ? 1 : (det < 0.0 ? -1 : 0);
    sum = -left - right;
  } else {
    return det > 0.0 ? 1 : (det < 0.0 ? -1 : 0);
  }
  constexpr double u = std::numeric_limits<double>::epsilon() / 2;
  const double bound = (3.0 + 16.0 * u) * u * sum;
  if (det > bound) return 1;
  if (-det > bound) return -1;
  return 0;
}

inline bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// Whether a chain coordinate stays where the orientation filter's
/// products of differences neither underflow nor overflow.
inline bool tame(double v) {
  const double a = std::abs(v);
  return a == 0.0 || (a > 0x1p-200 && a < 0x1p200);
}

/// Appends the chain [j0, j1) to `set` when its entries pass the chain
/// tests; the caller has checked the pattern and bounds.
inline void try_chain(int j0, int j1, const std::size_t* start,
                      const int* row, const double* val, const double* cost,
                      ChainSet& set) {
  const int size = j1 - j0;
  const int nnz = static_cast<int>(start[j0 + 1] - start[j0]);
  const auto at = [&](int j, int r) { return val[start[j] + r]; };
  // Each pattern position is constant, or follows sequence A or B.
  int ra = -1;
  int rb = -1;
  std::vector<char> role(nnz, 'c');
  const auto same_as = [&](int r, int q) {
    for (int j = j0; j < j1; ++j) {
      if (!same_bits(at(j, r), at(j, q))) return false;
    }
    return true;
  };
  for (int r = 0; r < nnz; ++r) {
    bool constant = true;
    for (int j = j0; j < j1; ++j) {
      if (!std::isfinite(at(j, r)) || !tame(at(j, r))) return;
      constant = constant && same_bits(at(j, r), at(j0, r));
    }
    if (constant) continue;
    if (ra < 0) {
      ra = r;
      role[r] = 'a';
    } else if (same_as(r, ra)) {
      role[r] = 'a';
    } else if (rb < 0) {
      rb = r;
      role[r] = 'b';
    } else if (same_as(r, rb)) {
      role[r] = 'b';
    } else {
      return;  // a third varying sequence
    }
  }
  const auto monotone_dir = [&](int r) {
    if (r < 0) return 0;
    const int dir = at(j0 + 1, r) > at(j0, r) ? 1 : -1;
    for (int j = j0; j + 1 < j1; ++j) {
      const double step = at(j + 1, r) - at(j, r);
      if (!(dir > 0 ? step > 0.0 : step < 0.0)) return 0;
    }
    return dir;
  };
  int a_dir = monotone_dir(ra);
  if (a_dir == 0) {
    a_dir = monotone_dir(rb);
    if (a_dir == 0) return;
    std::swap(ra, rb);
    for (char& c : role) c = c == 'a' ? 'b' : (c == 'b' ? 'a' : c);
  }
  int turn = 1;
  if (rb >= 0) {
    for (int j = j0; j + 2 < j1; ++j) {
      const int o = orientation(at(j, ra), at(j, rb), at(j + 1, ra),
                                at(j + 1, rb), at(j + 2, ra), at(j + 2, rb));
      if (o == 0 || (j > j0 && o != turn)) return;
      turn = o;
    }
  }

  Chain ch;
  ch.begin = j0;
  ch.size = size;
  ch.nnz = nnz;
  ch.a_dir = a_dir;
  ch.turn = turn;
  ch.zero_cost = true;
  for (int j = j0; j < j1; ++j) {
    ch.zero_cost = ch.zero_cost && cost[j] == 0.0;
    ch.a_max = std::max(ch.a_max, std::abs(at(j, ra)));
    if (rb >= 0) ch.b_max = std::max(ch.b_max, std::abs(at(j, rb)));
  }
  ch.rows_begin = static_cast<int>(set.rows.size());
  for (const char want : {'a', 'b', 'c'}) {
    if (want == 'b') ch.b_begin = static_cast<int>(set.rows.size());
    if (want == 'c') ch.c_begin = static_cast<int>(set.rows.size());
    for (int r = 0; r < nnz; ++r) {
      if (role[r] != want) continue;
      set.rows.push_back(row[start[j0] + r]);
      set.abs_val.push_back(std::abs(at(j0, r)));
    }
  }
  ch.rows_end = static_cast<int>(set.rows.size());
  ch.slopes_begin = static_cast<int>(set.slopes.size());
  if (rb >= 0) {
    for (int j = j0; j + 1 < j1; ++j) {
      set.slopes.push_back((at(j + 1, rb) - at(j, rb)) /
                           (at(j + 1, ra) - at(j, ra)));
    }
  }
  set.max_size = std::max(set.max_size, size);
  set.chains.push_back(ch);
}

}  // namespace detail

/// Finds the chains among structural columns [0, n) of a CSC matrix:
/// maximal runs of at least 4 consecutive columns with one row pattern
/// and the same finite, unfixed bounds (ub - lb >= primal_tol, so every
/// nonbasic column is eligible to enter) whose entries pass the chain
/// tests (see Chain). A run that fails any test is left to the full scan.
inline ChainSet find_chains(std::size_t n, const std::size_t* start,
                            const int* row, const double* val,
                            const double* lb, const double* ub,
                            const double* cost, double primal_tol) {
  constexpr int kMinSize = 4;
  ChainSet set;
  const auto same_shape = [&](std::size_t j, std::size_t i) {
    const std::size_t nnz = start[j + 1] - start[j];
    if (start[i + 1] - start[i] != nnz || !detail::same_bits(lb[i], lb[j]) ||
        !detail::same_bits(ub[i], ub[j])) {
      return false;
    }
    return std::equal(row + start[j], row + start[j + 1], row + start[i]);
  };
  std::size_t j = 0;
  while (j < n) {
    std::size_t e = j + 1;
    while (e < n && same_shape(j, e)) ++e;
    const bool long_enough = e - j >= static_cast<std::size_t>(kMinSize);
    if (long_enough && start[j + 1] > start[j] && std::isfinite(lb[j]) &&
        std::isfinite(ub[j]) && !(ub[j] - lb[j] < primal_tol)) {
      detail::try_chain(static_cast<int>(j), static_cast<int>(e), start, row,
                        val, cost, set);
    }
    j = e;
  }
  return set;
}

enum class Shape : char {
  /// Scan every column: the sign of beta could not be certified.
  kScan,
  /// Every dual on the A and B rows is exactly 0: all reduced costs of
  /// the chain are bitwise equal.
  kFlat,
  /// g rises, then falls (either part may be empty).
  kPeak,
  /// g falls, then rises, or is monotone: the largest g over any run of
  /// columns sits at one of its ends.
  kEnds,
};

/// The per-call view of a chain.
struct Call {
  Shape shape = Shape::kScan;
  /// Where the slopes put the peak (kPeak only). A guess: it decides
  /// which columns are evaluated first, never what is skipped.
  int hint = 0;
  /// Twice a bound on the absolute rounding error of any one computed
  /// reduced cost of the chain, padded so that v + two_err evaluated in
  /// floating point stays above the true bound.
  double two_err = 0.0;
};

/// Classifies `ch` under the duals `y` (indexed by row).
inline Call classify(const ChainSet& set, const Chain& ch, const double* y) {
  constexpr double u = std::numeric_limits<double>::epsilon() / 2;
  const int* const rows = set.rows.data();
  double alpha = 0.0;
  double abs_a = 0.0;
  for (int i = ch.rows_begin; i < ch.b_begin; ++i) {
    alpha += y[rows[i]];
    abs_a += std::abs(y[rows[i]]);
  }
  double beta = 0.0;
  double abs_b = 0.0;
  for (int i = ch.b_begin; i < ch.c_begin; ++i) {
    beta += y[rows[i]];
    abs_b += std::abs(y[rows[i]]);
  }
  double abs_c = 0.0;
  for (int i = ch.c_begin; i < ch.rows_end; ++i) {
    abs_c += set.abs_val[i] * std::abs(y[rows[i]]);
  }
  // One reduced cost sums nnz products in order: its error is at most
  // gamma_nnz * sum |a_r| |y_r| plus nnz * 2^-1075 of underflow, and the
  // sum is at most s. Four times nnz * u * s covers gamma_nnz and the
  // roundings of the bounds built from it; the pad of 2^-1000 per product
  // covers underflow and stays a normal number (subnormal operands cost a
  // microcode assist per call).
  const double s = abs_c + ch.a_max * abs_a + ch.b_max * abs_b;
  Call call;
  if (!(s < 1e300)) return call;  // overflowing or NaN duals: scan
  call.two_err = 2.0 * ch.nnz * (4.0 * u * s + 0x1p-1000);
  if (abs_a == 0.0 && abs_b == 0.0) {
    call.shape = Shape::kFlat;
    return call;
  }
  if (abs_b == 0.0) {
    call.shape = Shape::kEnds;  // beta is exactly 0: g is monotone
    return call;
  }
  const int b_rows = ch.c_begin - ch.b_begin;
  if (!(std::abs(beta) > 2.0 * b_rows * u * abs_b)) return call;
  // Along the chain, g_{k+1} - g_k = (A_{k+1} - A_k) (alpha + beta s_k)
  // with slopes s_k monotone in the direction `turn`.
  const int dir = ch.a_dir * (beta > 0.0 ? 1 : -1) * ch.turn;
  if (dir > 0) {
    call.shape = Shape::kEnds;
    return call;
  }
  call.shape = Shape::kPeak;
  // The first step that does not rise, by a branch-free binary search
  // (the comparison is a coin flip per call, so branches mispredict).
  const double* const slope = set.slopes.data() + ch.slopes_begin;
  const double sa = ch.a_dir * alpha;
  const double sb = ch.a_dir * beta;
  int first = 0;
  int count = ch.size - 1;
  while (count > 0) {
    const int half = count / 2;
    const bool rises = sa + sb * slope[first + half] > 0.0;
    first = rises ? first + half + 1 : first;
    count = rises ? count - half - 1 : half;
  }
  call.hint = first;
  return call;
}

/// walk()'s working arrays, sized once to the longest chain.
struct Scratch {
  std::vector<int> pos;      // evaluated positions, ascending
  std::vector<double> g;     // their at-lower violations, -reduced cost
  std::vector<char> fall;    // fall[i]: a certified fall ends at or before i
  std::vector<char> rise;    // rise[i]: a certified rise starts at or after i

  void resize(int size) {
    pos.resize(size);
    g.resize(size);
    fall.resize(size);
    rise.resize(size);
  }
};

namespace detail {

/// Whether any of status[0, size) is at upper or free: bit 0 of the
/// encoding, tested eight statuses per load.
inline bool any_in_place(const VarStatus* status, int size) {
  static_assert(static_cast<int>(VarStatus::kAtLower) == 0 &&
                static_cast<int>(VarStatus::kAtUpper) == 1 &&
                static_cast<int>(VarStatus::kBasic) == 2 &&
                static_cast<int>(VarStatus::kFree) == 3);
  int k = 0;
  for (; k + 8 <= size; k += 8) {
    std::uint64_t word = 0;
    std::memcpy(&word, status + k, 8);
    if ((word & 0x0101010101010101ull) != 0) return true;
  }
  for (; k < size; ++k) {
    if ((static_cast<int>(status[k]) & 1) != 0) return true;
  }
  return false;
}

}  // namespace detail

/// Offers the chain's columns base + k, k in [0, size), to `inc` so that
/// `inc` ends exactly as a sequential scan would leave it: every eligible
/// column offered in ascending order with violation -d (at lower), d (at
/// upper) or |d| (free), where d = value(k) is the column's reduced cost.
/// A chain's bounds are unfixed, so every nonbasic column is eligible.
/// `status` points at the chain's first column, and `s` is sized to at
/// least `size`. `call` must hold for the values: its shape describes the
/// exact reduced costs, and no value(k) is further than two_err / 2 from
/// its exact one.
template <class Value>
void walk(const Call& call, int base, int size, const VarStatus* status,
          double dual_tol, Value&& value, Incumbent& inc, Scratch& s) {
  const auto offered = [&](int k) { return status[k] != VarStatus::kBasic; };
  // The violation of column k whose at-lower violation is g.
  const auto viol = [&](int k, double g) {
    const VarStatus st = status[k];
    return st == VarStatus::kAtLower ? g
           : st == VarStatus::kAtUpper ? -g
                                       : std::abs(g);
  };

  if (call.shape == Shape::kScan || size < 4) {
    for (int k = 0; k < size; ++k) {
      if (offered(k)) inc.offer(base + k, viol(k, -value(k)), dual_tol);
    }
    return;
  }
  const bool in_place = detail::any_in_place(status, size);
  if (call.shape == Shape::kFlat) {
    // Equal violations: after the first at-lower column, no later one can
    // beat the incumbent by the tie margin, and at-upper and free ones in
    // between cannot take the lead from a positive at-lower violation.
    bool have = false;
    bool lower_seen = false;
    double g = 0.0;
    for (int k = 0; k < size; ++k) {
      if (!offered(k)) continue;
      if (status[k] == VarStatus::kAtLower) {
        if (lower_seen) continue;
        lower_seen = true;
      }
      if (!have) {
        g = -value(k);
        have = true;
      }
      inc.offer(base + k, viol(k, g), dual_tol);
      if (!in_place) return;
    }
    return;
  }

  const double two_err = call.two_err;
  const double bar = inc.bar(dual_tol);
  if (!in_place && call.shape == Shape::kPeak) {
    // The common case: the peak beats both neighbours by more than the
    // rounding bound, so a certified rise and fall bound every other
    // column by a neighbour's value plus two_err.
    const int p = call.hint;
    const double gp = -value(p);
    const double left = p > 0 ? -value(p - 1) + two_err : -HUGE_VAL;
    const double right = p + 1 < size ? -value(p + 1) + two_err : -HUGE_VAL;
    if (gp > left && gp > right) {
      if (gp <= bar) return;  // no column can displace the incumbent
      if (status[p] == VarStatus::kAtLower &&
          (p == 0 || gp > left * (1.0 + kTieRel))) {
        // p beats every state its left part could leave, and its right
        // part cannot beat p.
        inc.best = base + p;
        inc.viol = gp;
        return;
      }
    }
  } else if (!in_place) {
    // Max at an end of any run: probe both ends and the inner neighbour
    // of the larger one.
    const int last = size - 1;
    const double g0 = -value(0);
    const double gl = -value(last);
    if (g0 >= gl) {
      const double g1 = -value(1);
      Incumbent cur = inc;
      if (status[0] == VarStatus::kAtLower) cur.offer(base, g0, dual_tol);
      if (std::max(g1, gl) + two_err <= cur.bar(dual_tol)) {
        inc = cur;
        return;
      }
    } else {
      const double before = std::max(g0, -value(last - 1)) + two_err;
      if (before <= bar) {
        if (status[last] == VarStatus::kAtLower) {
          inc.offer(base + last, gl, dual_tol);
        }
        return;
      }
      if (status[last] == VarStatus::kAtLower && gl > bar &&
          gl > before * (1.0 + kTieRel)) {
        inc.best = base + last;
        inc.viol = gl;
        return;
      }
    }
  }

  int* const pos = s.pos.data();
  double* const gv = s.g.data();
  int n = 0;
  const auto add = [&](int k) {
    int i = n;
    while (i > 0 && pos[i - 1] > k) --i;
    if (i > 0 && pos[i - 1] == k) return;
    for (int t = n; t > i; --t) {
      pos[t] = pos[t - 1];
      gv[t] = gv[t - 1];
    }
    pos[i] = k;
    gv[i] = -value(k);
    ++n;
  };
  const bool peak = call.shape == Shape::kPeak;
  if (peak) {
    if (call.hint > 0) add(call.hint - 1);
    add(call.hint);
    if (call.hint + 1 < size) add(call.hint + 1);
  } else {
    add(0);
    add(size - 1);
    add(gv[1] > gv[0] ? size - 2 : 1);
  }
  // At-upper and free columns are evaluated and offered in place.
  for (int k = 0; in_place && k < size; ++k) {
    if (offered(k) && status[k] != VarStatus::kAtLower) add(k);
  }

  for (;;) {
    if (peak) {
      // A certified fall g_a > g_b (a < b) puts every later step at or
      // below zero; a certified rise puts every earlier step above it.
      double top = -std::numeric_limits<double>::infinity();
      bool seen = false;
      for (int i = 0; i < n; ++i) {
        seen = seen || top > gv[i] + two_err;
        s.fall[i] = seen;
        top = std::max(top, gv[i]);
      }
      top = -std::numeric_limits<double>::infinity();
      seen = false;
      for (int i = n - 1; i >= 0; --i) {
        seen = seen || top > gv[i] + two_err;
        s.rise[i] = seen;
        top = std::max(top, gv[i]);
      }
    }
    // Replay the comparator over evaluated columns and the gaps between
    // them. `pending` means a gap may have moved the incumbent: the true
    // state is `cur` or one whose violation lies in (cur.bar, pend].
    Incumbent cur = inc;
    bool pending = false;
    double pend = 0.0;
    int target = -1;  // the gap column to evaluate if the replay fails
    double target_bound = -std::numeric_limits<double>::infinity();
    for (int i = 0; i <= n; ++i) {
      const int lo = i == 0 ? 0 : pos[i - 1] + 1;
      const int hi = i == n ? size : pos[i];
      if (lo < hi) {
        // A bound on every at-lower violation in [lo, hi), and the end of
        // the gap where the largest one can sit.
        double bound = std::numeric_limits<double>::infinity();
        int at = peak ? std::clamp(call.hint, lo, hi - 1) : lo;
        if (peak) {
          if (i < n && s.rise[i]) {
            bound = gv[i] + two_err;
            at = hi - 1;
          }
          if (i > 0 && s.fall[i - 1] && gv[i - 1] + two_err < bound) {
            bound = gv[i - 1] + two_err;
            at = lo;
          }
        } else if (i > 0 && i < n) {
          bound = std::max(gv[i - 1], gv[i]) + two_err;
          at = gv[i - 1] >= gv[i] ? lo : hi - 1;
        } else if (i == n) {
          at = hi - 1;
        }
        if (bound > cur.bar(dual_tol)) {
          pend = pending ? std::max(pend, bound) : bound;
          pending = true;
          if (bound > target_bound) {
            target_bound = bound;
            target = at;
          }
        }
      }
      if (i == n) break;
      const int k = pos[i];
      if (!offered(k)) continue;
      const double v = viol(k, gv[i]);
      if (!pending) {
        cur.offer(base + k, v, dual_tol);
      } else if (v > cur.bar(dual_tol)) {
        if (v > pend * (1.0 + kTieRel)) {
          // k beats every state the gaps could have left: resynchronized.
          cur.best = base + k;
          cur.viol = v;
          pending = false;
          target = -1;
          target_bound = -std::numeric_limits<double>::infinity();
        } else {
          pend = std::max(pend, v);
        }
      }
    }
    if (!pending) {
      inc = cur;
      return;
    }
    add(target);
  }
}

}  // namespace chain
}  // namespace powerlim::lp
