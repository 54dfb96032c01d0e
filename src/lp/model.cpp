#include "lp/model.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

#include "util/rng.h"

namespace powerlim::lp {

namespace {

/// Stable sort of `n` (column, coefficient) pairs by column. Rows arrive
/// sorted or nearly so (a few vertex columns ahead of their share
/// columns), so insertion sort touches each term about once; a long row
/// that is far from sorted goes through std::stable_sort instead.
void sort_by_column(int* idx, double* val, std::size_t n) {
  if (std::is_sorted(idx, idx + n)) return;
  constexpr std::size_t kInsertionMax = 64;
  if (n > kInsertionMax) {
    std::vector<std::pair<int, double>> terms(n);
    for (std::size_t k = 0; k < n; ++k) terms[k] = {idx[k], val[k]};
    std::stable_sort(terms.begin(), terms.end(),
                     [](const auto& a, const auto& b) {
                       return a.first < b.first;
                     });
    for (std::size_t k = 0; k < n; ++k) {
      idx[k] = terms[k].first;
      val[k] = terms[k].second;
    }
    return;
  }
  for (std::size_t k = 1; k < n; ++k) {
    const int i = idx[k];
    const double v = val[k];
    std::size_t p = k;
    for (; p > 0 && idx[p - 1] > i; --p) {
      idx[p] = idx[p - 1];
      val[p] = val[p - 1];
    }
    idx[p] = i;
    val[p] = v;
  }
}

}  // namespace

Variable Model::add_variable(double lb, double ub, double obj,
                             std::string name) {
  if (lb > ub) throw std::invalid_argument("variable lb > ub: " + name);
  var_lb_.push_back(lb);
  var_ub_.push_back(ub);
  obj_.push_back(obj);
  integer_.push_back(0);
  var_name_.push_back(std::move(name));
  return Variable{static_cast<int>(var_lb_.size()) - 1};
}

Variable Model::add_integer_variable(double lb, double ub, double obj,
                                     std::string name) {
  Variable v = add_variable(lb, ub, obj, std::move(name));
  integer_[v.index] = 1;
  return v;
}

Variable Model::add_binary(double obj, std::string name) {
  return add_integer_variable(0.0, 1.0, obj, std::move(name));
}

Constraint Model::add_constraint(const std::vector<Term>& terms, double rlb,
                                 double rub) {
  // A row has no name; an error names it by the index it would take.
  if (rlb > rub) {
    throw std::invalid_argument("row lb > ub: row " +
                                std::to_string(row_lb_.size()));
  }
  for (const Term& t : terms) {
    if (!t.var.valid() ||
        t.var.index >= static_cast<int>(var_lb_.size())) {
      throw std::invalid_argument("constraint uses invalid variable: row " +
                                  std::to_string(row_lb_.size()));
    }
  }
  // Merge duplicate variables so callers can build expressions naively:
  // append the terms, sort them stably by column, then sum each column's
  // coefficients in input order and drop exact zeros.
  if (row_start_.empty()) row_start_.push_back(0);
  const std::size_t begin = col_index_.size();
  for (const Term& t : terms) {
    col_index_.push_back(t.var.index);
    value_.push_back(t.coeff);
  }
  sort_by_column(col_index_.data() + begin, value_.data() + begin,
                 terms.size());
  std::size_t out = begin;
  for (std::size_t k = begin; k < col_index_.size();) {
    const int idx = col_index_[k];
    double coeff = 0.0;
    for (; k < col_index_.size() && col_index_[k] == idx; ++k) {
      coeff += value_[k];
    }
    if (std::abs(coeff) == 0.0) continue;
    col_index_[out] = idx;
    value_[out] = coeff;
    ++out;
  }
  col_index_.resize(out);
  value_.resize(out);
  row_start_.push_back(col_index_.size());
  row_lb_.push_back(rlb);
  row_ub_.push_back(rub);
  return Constraint{static_cast<int>(row_lb_.size()) - 1};
}

void Model::set_variable_bounds(Variable v, double lb, double ub) {
  if (!v.valid() || v.index >= static_cast<int>(var_lb_.size())) {
    throw std::invalid_argument("set_variable_bounds: invalid variable");
  }
  if (lb > ub) throw std::invalid_argument("set_variable_bounds: lb > ub");
  var_lb_[v.index] = lb;
  var_ub_[v.index] = ub;
}

bool Model::has_integers() const {
  return std::any_of(integer_.begin(), integer_.end(),
                     [](char c) { return c != 0; });
}

Model::RowView Model::row(int i) const {
  const std::size_t begin = row_start_[i];
  const std::size_t end = row_start_[i + 1];
  return RowView{col_index_.data() + begin, value_.data() + begin,
                 end - begin};
}

double Model::objective_value(const std::vector<double>& x) const {
  double v = 0.0;
  for (std::size_t j = 0; j < obj_.size(); ++j) v += obj_[j] * x[j];
  return v;
}

void Model::perturb_nonzeros(double magnitude, std::uint64_t seed) {
  util::Rng rng(seed);
  for (double& v : value_) {
    v *= std::pow(10.0, rng.uniform(-magnitude, magnitude));
  }
}

double Model::max_violation(const std::vector<double>& x) const {
  double worst = 0.0;
  for (std::size_t j = 0; j < var_lb_.size(); ++j) {
    worst = std::max(worst, var_lb_[j] - x[j]);
    worst = std::max(worst, x[j] - var_ub_[j]);
  }
  for (std::size_t i = 0; i < row_lb_.size(); ++i) {
    const RowView r = row(static_cast<int>(i));
    double acc = 0.0;
    for (std::size_t k = 0; k < r.size; ++k) acc += r.coeff[k] * x[r.idx[k]];
    worst = std::max(worst, row_lb_[i] - acc);
    worst = std::max(worst, acc - row_ub_[i]);
  }
  return std::max(worst, 0.0);
}

}  // namespace powerlim::lp
