// Sparse LU basis factorization with product-form eta updates - the
// basis representation of the simplex (lp/simplex.h).
//
// Factorization: left-looking Gilbert-Peierls column LU with partial
// (max-magnitude) row pivoting over a Markowitz-style column pre-order
// (ascending nonzero count, so singleton slack/artificial columns pivot
// first with zero fill). Each column's pattern is predicted by a DFS
// reachability pass over the L graph, so total work is proportional to
// the flops of the factorization, not m^2.
//
// Storage: L and U are compressed sparse columns in pivot coordinates
// (L's unit diagonal implicit, U's diagonal split out dense). One CSC
// layout serves both solve directions: the forward solves (FTRAN) are
// scatter-axpy column sweeps and the transposed solves (BTRAN) are
// gather-dot sweeps over the very same arrays (lp/kernels.h).
//
// Pivot updates: product-form eta file. After column q replaces basis
// position r, B_new = B_old * E where E is identity except column r,
// which holds the FTRAN'd entering column w = B_old^{-1} A_q. FTRAN
// applies the LU solves then the etas in creation order; BTRAN applies
// the etas in reverse then the transposed LU solves. The file is
// append-only between refactorizations and is wiped by factor(); the
// caller refactorizes on its existing interval/stability triggers plus
// the eta-growth trigger (kEtaGrowthLimit in simplex.cpp).
#pragma once

#include <cstddef>
#include <vector>

namespace powerlim::lp {

class SparseLu {
 public:
  /// Factorizes the m x m basis whose p-th column is computational
  /// column basis[p] of the CSC matrix (col_start/col_row/col_val).
  /// Returns false when the basis is structurally or numerically
  /// singular (no reachable pivot of magnitude > singular_tol in some
  /// column). Wipes the eta file either way.
  bool factor(const std::size_t* col_start, const int* col_row,
              const double* col_val, const int* basis, std::size_t m,
              double singular_tol);

  /// w := B^{-1} w. Input and output are dense length-m vectors indexed
  /// by row (equivalently basis position).
  void ftran(double* w);

  /// y := B^{-T} y (row-space transform: y^T B = c^T solved for y).
  void btran(double* y);

  /// Appends the product-form eta for a pivot at basis position r, where
  /// w = B^{-1} A_entering is dense and wnz lists its nonzero positions
  /// (r included). Returns false - leaving the file untouched - when
  /// |w[r]| <= stability_tol; the caller must then refactorize before
  /// the next ftran/btran, since the basis it tracks has changed.
  bool push_eta(int r, const double* w, const int* wnz, std::size_t nnz,
                double stability_tol);

  bool factored() const { return factored_; }
  std::size_t dim() const { return m_; }
  std::size_t eta_count() const { return eta_pos_.size(); }
  /// Off-pivot nonzeros currently in the eta file (the refactorization
  /// growth trigger and the SimplexStats::eta_nonzeros source).
  std::size_t eta_nonzeros() const { return eta_idx_.size(); }
  /// nnz(L) + nnz(U) including diagonals, from the latest factor().
  std::size_t factor_nonzeros() const {
    return l_idx_.size() + u_idx_.size() + m_;
  }
  /// Fill ratio factor_nonzeros() / nnz(B) of the latest factor().
  double fill_ratio() const { return fill_ratio_; }

 private:
  void lower_solve(double* x) const;
  void upper_solve(double* x) const;
  void lower_solve_t(double* x) const;
  void upper_solve_t(double* x) const;

  std::size_t m_ = 0;
  bool factored_ = false;
  double fill_ratio_ = 0.0;

  // L (unit lower) and U, CSC in pivot coordinates; L column k holds
  // rows > k, U column k holds rows < k, U's diagonal in u_diag_.
  std::vector<std::size_t> l_start_, u_start_;
  std::vector<int> l_idx_, u_idx_;
  std::vector<double> l_val_, u_val_, u_diag_;

  // Permutations: pivot_row_[k] = original row of pivot k (P), and
  // pivot_col_[k] = basis position factored as column k (Q).
  std::vector<int> pivot_row_, pivot_col_;
  std::vector<int> row_of_;  // original row -> pivot index
  std::vector<int> col_of_;  // basis position -> factor column

  // Eta file, flat: eta k pivots at position eta_pos_[k] with pivot
  // value eta_piv_[k]; its off-pivot entries are
  // eta_idx_/eta_val_[eta_start_[k] .. eta_start_[k+1]).
  std::vector<std::size_t> eta_start_;
  std::vector<int> eta_pos_;
  std::vector<double> eta_piv_;
  std::vector<int> eta_idx_;
  std::vector<double> eta_val_;

  // Factorization scratch, kept allocated across refactorizations.
  std::vector<double> work_;
  std::vector<int> stack_, visit_mark_, topo_, reach_;
  std::vector<std::size_t> stack_edge_;
  int mark_epoch_ = 0;

  // Solve scratch (permuted copies).
  std::vector<double> perm_;
};

}  // namespace powerlim::lp
