// Linear-program model builder.
//
// powerlim needs an LP solver for the paper's fixed-vertex-order
// formulation (Section 3) and a mixed integer-linear solver for the flow
// ILP (Appendix). No external solver is available in this environment, so
// lp/ is a from-scratch substrate: this header is the model-building API,
// simplex.h solves the continuous relaxation and branch_bound.h layers
// integrality on top.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace powerlim::lp {

/// Effective infinity for variable/row bounds.
inline constexpr double kInfinity = 1e30;

inline bool is_finite_bound(double b) {
  return b > -kInfinity / 2 && b < kInfinity / 2;
}

enum class Sense { kMinimize, kMaximize };

/// Typed handle to a model variable.
struct Variable {
  int index = -1;
  bool valid() const { return index >= 0; }
};

/// Typed handle to a model constraint (row).
struct Constraint {
  int index = -1;
  bool valid() const { return index >= 0; }
};

/// One term of a linear expression: coefficient * variable.
struct Term {
  Variable var;
  double coeff = 0.0;
};

/// A linear program / mixed-integer program in "row bounds" form:
///
///   optimize  c'x      (sense)
///   s.t.      rlb <= A x <= rub   (per row; rlb == rub for equalities)
///             lb  <=  x  <= rub   (per variable)
///             x_j integer for flagged variables
///
/// The model owns its data by value; copying a Model is cheap enough for
/// branch & bound to clone bound vectors per node.
class Model {
 public:
  explicit Model(Sense sense = Sense::kMinimize) : sense_(sense) {}

  Sense sense() const { return sense_; }
  void set_sense(Sense sense) { sense_ = sense; }

  /// Adds a variable with bounds [lb, ub] and objective coefficient obj.
  Variable add_variable(double lb, double ub, double obj,
                        std::string name = {});

  /// Adds an integer-constrained variable (used by the flow ILP's binary
  /// sequencing variables x_ij).
  Variable add_integer_variable(double lb, double ub, double obj,
                                std::string name = {});

  /// Convenience: binary variable in {0, 1}.
  Variable add_binary(double obj, std::string name = {});

  /// Adds a row  rlb <= sum(terms) <= rub. Duplicate variables in `terms`
  /// are merged. Throws std::invalid_argument on an invalid handle.
  Constraint add_constraint(const std::vector<Term>& terms, double rlb,
                            double rub);

  Constraint add_eq(const std::vector<Term>& terms, double rhs) {
    return add_constraint(terms, rhs, rhs);
  }
  Constraint add_le(const std::vector<Term>& terms, double rhs) {
    return add_constraint(terms, -kInfinity, rhs);
  }
  Constraint add_ge(const std::vector<Term>& terms, double rhs) {
    return add_constraint(terms, rhs, kInfinity);
  }

  /// Tightens the bounds of an existing variable (branch & bound uses this
  /// on cloned models).
  void set_variable_bounds(Variable v, double lb, double ub);

  std::size_t num_variables() const { return var_lb_.size(); }
  std::size_t num_constraints() const { return row_lb_.size(); }
  std::size_t num_nonzeros() const { return col_index_.size(); }

  double variable_lb(int j) const { return var_lb_[j]; }
  double variable_ub(int j) const { return var_ub_[j]; }
  double objective_coeff(int j) const { return obj_[j]; }
  bool is_integer(int j) const { return integer_[j] != 0; }
  bool has_integers() const;
  const std::string& variable_name(int j) const { return var_name_[j]; }

  double row_lb(int i) const { return row_lb_[i]; }
  double row_ub(int i) const { return row_ub_[i]; }

  /// Row i as (variable index, coefficient) pairs.
  struct RowView {
    const int* idx;
    const double* coeff;
    std::size_t size;
  };
  RowView row(int i) const;

  /// Evaluates the objective at a point.
  double objective_value(const std::vector<double>& x) const;

  /// Maximum constraint/bound violation at a point; 0 means feasible.
  double max_violation(const std::vector<double>& x) const;

  /// Fault-injection seam for robustness testing: multiplies every stored
  /// constraint coefficient by a seeded factor in [10^-magnitude,
  /// 10^+magnitude]. The corrupted model is still finite (no NaN/Inf) but
  /// badly scaled, which is how real numerical trouble presents to the
  /// simplex. Deterministic for a given seed.
  void perturb_nonzeros(double magnitude, std::uint64_t seed);

 private:
  Sense sense_;
  // Variables.
  std::vector<double> var_lb_, var_ub_, obj_;
  std::vector<char> integer_;
  std::vector<std::string> var_name_;
  // Rows in CSR-like storage.
  std::vector<double> row_lb_, row_ub_;
  std::vector<std::size_t> row_start_;  // size rows+1
  std::vector<int> col_index_;
  std::vector<double> value_;
};

}  // namespace powerlim::lp
