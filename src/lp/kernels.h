// Scatter/gather inner kernels for the LP solver.
//
// The simplex's hot loops bottom out here: sparse scatter-axpy and
// gather-dot over LU factors and eta files, and the gather-dot of each
// reduced cost that pricing evaluates (every column the scan visits, and
// the few per convex chain that lp/chain_pricing.h picks). The loops are
// written to auto-vectorize under -O2: raw pointers, no aliasing between
// input and output arrays (callers guarantee it), and no early exits.
// They sum in entry order: the byte-identity suites compare solver output
// across processes, the pinned pivot paths (tests/lp/pivot_path_test.cpp)
// depend on the rounding of every reduced cost, and the chain walk's
// rounding bound is that of a recursive sum.
//
// Solver arithmetic is IEEE double by design; exact arithmetic lives
// only in src/check/ (see powerlint's float-in-exact scope note).
#pragma once

#include <cstddef>

namespace powerlim::lp::kernels {

/// x[idx[k]] += a * val[k] for k in [0, nnz): sparse column update into a
/// dense work vector (FTRAN lower solve, eta application, basis RHS).
inline void scatter_axpy(std::size_t nnz, double a, const int* idx,
                         const double* val, double* x) {
  for (std::size_t k = 0; k < nnz; ++k) x[idx[k]] += a * val[k];
}

/// sum_k val[k] * x[idx[k]] over [0, nnz): sparse dot of a compressed
/// column against a dense vector (BTRAN upper solve, one column's
/// reduced cost in pricing). Unrolled by two, still summing in entry
/// order: pricing calls it once per evaluated column, mostly on columns
/// of three entries, and this form priced a 64-rank CoMD window by full
/// scan about a quarter faster than a loop of one entry per iteration.
inline double gather_dot(std::size_t nnz, const int* idx, const double* val,
                         const double* x) {
  double acc = 0.0;
  std::size_t k = 0;
  for (; k + 2 <= nnz; k += 2) {
    acc += val[k] * x[idx[k]];
    acc += val[k + 1] * x[idx[k + 1]];
  }
  if (k < nnz) acc += val[k] * x[idx[k]];
  return acc;
}

}  // namespace powerlim::lp::kernels
