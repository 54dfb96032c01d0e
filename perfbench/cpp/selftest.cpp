// Checks of the benchmark's own arithmetic (common.h). Exits nonzero on
// the first failed check; run by perfbench/run.py --selftest.
#include <cmath>
#include <iostream>
#include <vector>

#include "common.h"

namespace {

int g_failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    std::cerr << "FAIL: " << what << "\n";
    ++g_failures;
  }
}

std::vector<double> ramp(int n) {
  std::vector<double> xs;
  for (int i = n; i >= 1; --i) xs.push_back(i);  // unsorted on purpose
  return xs;
}

void tail_rule() {
  using perfbench::samples_beyond;
  using perfbench::tail_percentile;
  expect(tail_percentile(19) < 0, "19 samples: no percentile has 10 beyond");
  expect(tail_percentile(20) == 50, "20 samples: p50 leaves exactly 10");
  expect(tail_percentile(39) == 50, "39 samples: p75 leaves only 9");
  expect(tail_percentile(40) == 75, "40 samples: p75 leaves 10");
  expect(tail_percentile(100) == 90, "100 samples: p90");
  expect(tail_percentile(199) == 90, "199 samples: p95 leaves 9");
  expect(tail_percentile(200) == 95, "200 samples: p95");
  expect(tail_percentile(499) == 95, "499 samples: p98 leaves 9");
  expect(tail_percentile(500) == 98, "500 samples: p98");
  expect(tail_percentile(1000) == 99, "1000 samples: p99");
  expect(tail_percentile(10000) == 99.9, "10000 samples: p99.9");
  for (std::size_t n = 1; n <= 2000; ++n) {
    const double p = tail_percentile(n);
    if (p < 0) continue;
    expect(samples_beyond(n, p) >= 10, "chosen percentile leaves >= 10");
  }
  const std::vector<double> xs = ramp(40);
  const perfbench::Tail t = perfbench::tail_at(xs, tail_percentile(40));
  expect(t.p == 75 && t.value == 30 && t.n == 40,
         "p75 of 1..40 is 30, with 31..40 beyond it");
  expect(perfbench::describe(t) == "p75 (n=40)", "tail description");
  expect(perfbench::median(ramp(4)) == 2.5, "even median");
}

void self_time() {
  using perfbench::Span;
  const Span parent{"p", 0.0, 100.0, -1, 0};
  // Overlapping children [10,40] and [30,60] cover 50 ms once; [55,70]
  // extends the run to 70; [90,120] sticks out and counts up to 100.
  const std::vector<Span> kids = {{"a", 10, 40, 0, 0},
                                  {"b", 30, 60, 0, 0},
                                  {"c", 55, 70, 0, 0},
                                  {"d", 90, 120, 0, 0}};
  expect(std::fabs(perfbench::self_time_ms(parent, kids) - 30.0) < 1e-12,
         "self time counts overlapping children once");
  expect(perfbench::self_time_ms(parent, {}) == 100.0, "no children");
  expect(perfbench::self_time_ms(parent, {{"e", -5, 200, 0, 0}}) == 0.0,
         "a child covering everything leaves no self time");
}

void poisson() {
  const auto a = perfbench::poisson_arrivals_s(42, 20.0, 2000);
  const auto b = perfbench::poisson_arrivals_s(42, 20.0, 2000);
  const auto c = perfbench::poisson_arrivals_s(43, 20.0, 2000);
  expect(a == b, "same seed, same schedule");
  expect(a != c, "another seed, another schedule");
  bool ascending = true;
  for (std::size_t i = 1; i < a.size(); ++i) ascending &= a[i] > a[i - 1];
  expect(ascending, "arrivals ascend");
  // 2000 arrivals at 20/s span ~100 s; the mean gap is within 5%.
  expect(std::fabs(a.back() / 2000.0 - 0.05) < 0.0025, "mean gap 1/rate");
  const auto w1 = perfbench::choose_indices(7, 200, 20);
  expect(w1 == perfbench::choose_indices(7, 200, 20) && w1.size() == 20,
         "write positions reproducible, exactly 10%");
  bool distinct = true;
  for (std::size_t i = 1; i < w1.size(); ++i) distinct &= w1[i] > w1[i - 1];
  expect(distinct && w1.back() < 200, "write positions distinct, in range");
}

void tolerance() {
  using perfbench::kBoundRelTol;
  using perfbench::within_rel;
  expect(within_rel(57.1457, 57.1457, kBoundRelTol), "equal");
  expect(within_rel(57.1457 * (1 + 5e-7), 57.1457, kBoundRelTol),
         "inside 1e-6 relative");
  expect(!within_rel(57.1457 * (1 + 2e-6), 57.1457, kBoundRelTol),
         "outside 1e-6 relative");
  expect(within_rel(1e-7, 0.0, kBoundRelTol), "absolute floor near zero");
  expect(!within_rel(NAN, 1.0, kBoundRelTol), "NaN never matches");
  expect(!within_rel(-1.0, 57.0, kBoundRelTol), "missing bound never matches");
}

}  // namespace

int main() {
  tail_rule();
  self_time();
  poisson();
  tolerance();
  if (g_failures == 0) std::cout << "perfbench selftest: all checks passed\n";
  return g_failures == 0 ? 0 : 1;
}
