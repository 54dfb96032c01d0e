// Dense and scatter/gather inner kernels for the LP solvers.
//
// Every hot loop of both simplex backends bottoms out here: dense axpy /
// dot over the explicit inverse (dense backend), sparse scatter-axpy /
// gather-dot over LU factors and eta files (sparse backend), and the
// gather-dot of every reduced cost in pricing (both). The loops are
// written to auto-vectorize under -O2: raw pointers, no aliasing between
// input and output arrays (callers guarantee it), unit stride on the
// dense operands, and no early exits.
//
// Backend hook: POWERLIM_LP_KERNELS_BACKEND can be defined (before this
// header is seen) to a header providing explicit-SIMD replacements with
// the same signatures in namespace powerlim::lp::kernels. The default
// scalar forms below are the reference semantics any replacement must
// match bit-for-bit on the dense ops (the byte-identity suites compare
// solver output across processes, so a backend may reassociate only
// where the caller tolerates it - today: nowhere; swap kernels, not
// summation order).
//
// Solver arithmetic is IEEE double by design; exact arithmetic lives
// only in src/check/ (see powerlint's float-in-exact scope note).
#pragma once

#include <cstddef>

#if defined(POWERLIM_LP_KERNELS_BACKEND)
#include POWERLIM_LP_KERNELS_BACKEND
#else

namespace powerlim::lp::kernels {

/// y[i] += a * x[i] for i in [0, n). Dense backend's eta application and
/// inverse-row updates.
inline void axpy(std::size_t n, double a, const double* x, double* y) {
  for (std::size_t i = 0; i < n; ++i) y[i] += a * x[i];
}

/// y[i] *= a for i in [0, n).
inline void scale(std::size_t n, double a, double* y) {
  for (std::size_t i = 0; i < n; ++i) y[i] *= a;
}

/// sum_i x[i] * y[i] over [0, n).
inline double dot(std::size_t n, const double* x, const double* y) {
  double acc = 0.0;
  for (std::size_t i = 0; i < n; ++i) acc += x[i] * y[i];
  return acc;
}

/// x[idx[k]] += a * val[k] for k in [0, nnz): sparse column update into a
/// dense work vector (FTRAN lower solve, eta application, basis RHS).
inline void scatter_axpy(std::size_t nnz, double a, const int* idx,
                         const double* val, double* x) {
  for (std::size_t k = 0; k < nnz; ++k) x[idx[k]] += a * val[k];
}

/// sum_k val[k] * x[idx[k]] over [0, nnz): sparse dot of a compressed
/// column against a dense vector (BTRAN upper solve, one column's
/// reduced cost in pricing). Unrolled by two, still summing in entry
/// order: pricing calls it once per column, mostly on columns of three
/// entries, and this form prices a 64-rank CoMD window about a quarter
/// faster than a loop of one entry per iteration.
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

#endif  // POWERLIM_LP_KERNELS_BACKEND
