#include "lp/model.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

namespace powerlim::lp {
namespace {

TEST(Model, AddVariableAssignsSequentialIndices) {
  Model m;
  const Variable a = m.add_variable(0, 1, 2.0, "a");
  const Variable b = m.add_variable(-1, 1, 3.0, "b");
  EXPECT_EQ(a.index, 0);
  EXPECT_EQ(b.index, 1);
  EXPECT_EQ(m.num_variables(), 2u);
  EXPECT_DOUBLE_EQ(m.objective_coeff(0), 2.0);
  EXPECT_EQ(m.variable_name(1), "b");
}

TEST(Model, RejectsInvertedVariableBounds) {
  Model m;
  EXPECT_THROW(m.add_variable(1.0, 0.0, 0.0), std::invalid_argument);
}

TEST(Model, RejectsInvertedRowBounds) {
  Model m;
  const Variable x = m.add_variable(0, 1, 0);
  EXPECT_THROW(m.add_constraint({{x, 1.0}}, 2.0, 1.0), std::invalid_argument);
}

TEST(Model, RejectsInvalidVariableHandle) {
  Model m;
  Variable bogus;  // index -1
  EXPECT_THROW(m.add_constraint({{bogus, 1.0}}, 0, 1), std::invalid_argument);
}

TEST(Model, MergesDuplicateTerms) {
  Model m;
  const Variable x = m.add_variable(0, 10, 0);
  m.add_eq({{x, 1.0}, {x, 2.0}}, 6.0);
  const Model::RowView r = m.row(0);
  ASSERT_EQ(r.size, 1u);
  EXPECT_DOUBLE_EQ(r.coeff[0], 3.0);
}

TEST(Model, DropsCancelledTerms) {
  Model m;
  const Variable x = m.add_variable(0, 10, 0);
  const Variable y = m.add_variable(0, 10, 0);
  m.add_eq({{x, 1.0}, {x, -1.0}, {y, 2.0}}, 4.0);
  const Model::RowView r = m.row(0);
  ASSERT_EQ(r.size, 1u);
  EXPECT_EQ(r.idx[0], y.index);
}

TEST(Model, SortsUnsortedTermsByColumn) {
  Model m;
  const Variable a = m.add_variable(0, 10, 0);
  const Variable b = m.add_variable(0, 10, 0);
  const Variable c = m.add_variable(0, 10, 0);
  m.add_le({{c, 1.0}, {a, 2.0}, {b, 3.0}, {a, 4.0}}, 5.0);
  const Model::RowView r = m.row(0);
  ASSERT_EQ(r.size, 3u);
  EXPECT_EQ(r.idx[0], a.index);
  EXPECT_EQ(r.idx[1], b.index);
  EXPECT_EQ(r.idx[2], c.index);
  EXPECT_EQ(r.coeff[0], 6.0);
  EXPECT_EQ(r.coeff[1], 3.0);
  EXPECT_EQ(r.coeff[2], 1.0);
}

TEST(Model, MergesDuplicatesInInputOrder) {
  // (0.1 + 0.2) - 0.3 is 2^-54 in doubles, 0.1 + (0.2 - 0.3) is 2^-55:
  // the row keeps the in-order sum.
  Model m;
  const Variable x = m.add_variable(0, 10, 0);
  const Variable y = m.add_variable(0, 10, 0);
  m.add_eq({{x, 0.1}, {y, 1.0}, {x, 0.2}, {x, -0.3}}, 0.0);
  const Model::RowView r = m.row(0);
  ASSERT_EQ(r.size, 2u);
  EXPECT_EQ(r.idx[0], x.index);
  EXPECT_EQ(r.coeff[0], 5.551115123125783e-17);
  EXPECT_EQ(r.coeff[0], (0.1 + 0.2) + -0.3);
}

TEST(Model, LongUnsortedRowMatchesTermByTermMerge) {
  // A row longer than the insertion-sort cutoff, in descending column
  // order with repeats, against a plain term-by-term merge.
  Model m;
  std::vector<Variable> vars;
  for (int j = 0; j < 50; ++j) vars.push_back(m.add_variable(0, 1, 0));
  std::vector<Term> terms;
  std::vector<double> want(vars.size(), 0.0);
  for (int k = 0; k < 150; ++k) {
    const int j = 49 - (k * 7) % 50;
    const double coeff = 0.1 * (k % 9) - 0.35;
    terms.push_back({vars[j], coeff});
    want[j] += coeff;
  }
  m.add_ge(terms, 0.0);
  const Model::RowView r = m.row(0);
  std::size_t t = 0;
  for (std::size_t j = 0; j < vars.size(); ++j) {
    if (want[j] == 0.0) continue;
    ASSERT_LT(t, r.size);
    EXPECT_EQ(r.idx[t], static_cast<int>(j));
    EXPECT_EQ(r.coeff[t], want[j]) << "column " << j;
    ++t;
  }
  EXPECT_EQ(t, r.size);
}

TEST(Model, RejectedRowLeavesTheModelUnchanged) {
  Model m;
  const Variable x = m.add_variable(0, 10, 0);
  m.add_eq({{x, 1.0}}, 1.0);
  Variable bogus;
  bogus.index = 7;  // no such variable
  EXPECT_THROW(m.add_le({{x, 1.0}, {bogus, 2.0}}, 3.0),
               std::invalid_argument);
  EXPECT_EQ(m.num_constraints(), 1u);
  EXPECT_EQ(m.num_nonzeros(), 1u);
  m.add_le({{x, 2.0}}, 3.0);
  EXPECT_EQ(m.row(1).size, 1u);
  EXPECT_EQ(m.row(1).coeff[0], 2.0);
}

TEST(Model, ConstraintHelpersSetBounds) {
  Model m;
  const Variable x = m.add_variable(0, 10, 0);
  m.add_le({{x, 1.0}}, 5.0);
  m.add_ge({{x, 1.0}}, 2.0);
  m.add_eq({{x, 1.0}}, 3.0);
  EXPECT_FALSE(is_finite_bound(m.row_lb(0)));
  EXPECT_DOUBLE_EQ(m.row_ub(0), 5.0);
  EXPECT_DOUBLE_EQ(m.row_lb(1), 2.0);
  EXPECT_FALSE(is_finite_bound(m.row_ub(1)));
  EXPECT_DOUBLE_EQ(m.row_lb(2), 3.0);
  EXPECT_DOUBLE_EQ(m.row_ub(2), 3.0);
}

TEST(Model, IntegerFlags) {
  Model m;
  m.add_variable(0, 1, 0);
  EXPECT_FALSE(m.has_integers());
  m.add_binary(1.0);
  EXPECT_TRUE(m.has_integers());
  EXPECT_FALSE(m.is_integer(0));
  EXPECT_TRUE(m.is_integer(1));
}

TEST(Model, ObjectiveValue) {
  Model m;
  m.add_variable(0, 10, 2.0);
  m.add_variable(0, 10, -1.0);
  EXPECT_DOUBLE_EQ(m.objective_value({3.0, 4.0}), 2.0);
}

TEST(Model, MaxViolationFeasiblePoint) {
  Model m;
  const Variable x = m.add_variable(0, 10, 0);
  m.add_le({{x, 1.0}}, 5.0);
  EXPECT_DOUBLE_EQ(m.max_violation({4.0}), 0.0);
}

TEST(Model, MaxViolationDetectsRowAndBound) {
  Model m;
  const Variable x = m.add_variable(0, 10, 0);
  m.add_le({{x, 1.0}}, 5.0);
  EXPECT_NEAR(m.max_violation({7.0}), 2.0, 1e-12);   // row violated by 2
  EXPECT_NEAR(m.max_violation({-1.0}), 1.0, 1e-12);  // bound violated by 1
}

TEST(Model, SetVariableBounds) {
  Model m;
  const Variable x = m.add_variable(0, 10, 0);
  m.set_variable_bounds(x, 2.0, 3.0);
  EXPECT_DOUBLE_EQ(m.variable_lb(0), 2.0);
  EXPECT_DOUBLE_EQ(m.variable_ub(0), 3.0);
  EXPECT_THROW(m.set_variable_bounds(x, 5.0, 4.0), std::invalid_argument);
}

TEST(Model, NonzeroCount) {
  Model m;
  const Variable x = m.add_variable(0, 1, 0);
  const Variable y = m.add_variable(0, 1, 0);
  m.add_eq({{x, 1.0}, {y, 1.0}}, 1.0);
  m.add_le({{y, 2.0}}, 1.0);
  EXPECT_EQ(m.num_nonzeros(), 3u);
}

}  // namespace
}  // namespace powerlim::lp
