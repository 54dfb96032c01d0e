// Tests the convex-chain pricing walk (lp/chain_pricing.h) against a
// brute-force sequential Dantzig scan: for every chain, status pattern,
// comparator state and shape, chain::walk must leave the comparator in
// exactly the state (column and violation bits) the full scan leaves.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "lp/chain_pricing.h"
#include "lp/kernels.h"
#include "util/rng.h"

namespace powerlim::lp::chain {
namespace {

constexpr double kDualTol = 1e-7;
constexpr int kBase = 100;  // column index of the chain's first column

struct Outcome {
  int best = -1;
  std::uint64_t viol_bits = 0;
  int evaluations = 0;
};

/// The full scan: every eligible column offered in ascending order.
Outcome brute_force(const std::vector<double>& d,
                    const std::vector<VarStatus>& status, Incumbent inc) {
  for (std::size_t k = 0; k < d.size(); ++k) {
    const VarStatus st = status[k];
    if (st == VarStatus::kBasic) continue;
    const double v = st == VarStatus::kAtLower   ? -d[k]
                     : st == VarStatus::kAtUpper ? d[k]
                                                 : std::abs(d[k]);
    inc.offer(kBase + static_cast<int>(k), v, kDualTol);
  }
  return {inc.best, std::bit_cast<std::uint64_t>(inc.viol),
          static_cast<int>(d.size())};
}

Outcome run_walk(const Call& call, const std::vector<double>& d,
                 const std::vector<VarStatus>& status, Incumbent inc) {
  Scratch scratch;
  scratch.resize(static_cast<int>(d.size()));
  int evaluations = 0;
  const auto value = [&](int k) {
    ++evaluations;
    return d[k];
  };
  walk(call, kBase, static_cast<int>(d.size()), status.data(), kDualTol, value,
       inc, scratch);
  return {inc.best, std::bit_cast<std::uint64_t>(inc.viol), evaluations};
}

/// Runs both and requires the same final comparator state; returns the
/// walk's evaluation count.
int expect_same_choice(const Call& call, const std::vector<double>& d,
                       const std::vector<VarStatus>& status,
                       const Incumbent& inc) {
  const Outcome want = brute_force(d, status, inc);
  const Outcome got = run_walk(call, d, status, inc);
  EXPECT_EQ(got.best, want.best);
  EXPECT_EQ(got.viol_bits, want.viol_bits);
  return got.evaluations;
}

Incumbent none() {
  Incumbent inc;
  inc.viol = kDualTol;
  return inc;
}

Incumbent holding(double viol) {
  Incumbent inc;
  inc.best = 7;
  inc.viol = viol;
  return inc;
}

/// Reduced costs whose at-lower violations are `g`.
std::vector<double> negated(const std::vector<double>& g) {
  std::vector<double> d(g.size());
  for (std::size_t k = 0; k < g.size(); ++k) d[k] = -g[k];
  return d;
}

Call shape_call(Shape shape, int hint, double two_err) {
  Call call;
  call.shape = shape;
  call.hint = hint;
  call.two_err = two_err;
  return call;
}

TEST(ChainPricing, TieLadderPicksTheFifthColumn) {
  // Violations 1, 1 + 0.9t, ..., 1 + 4.5t (t = kTieRel): the sequential
  // near-tie rule takes columns 0, 2 and 4, so the scan ends on the fifth
  // column; a band [best / (1 + 4t), best] around the largest would end
  // on the sixth.
  std::vector<double> g;
  for (int i = 0; i < 6; ++i) g.push_back(1.0 + 0.9 * kTieRel * i);
  const std::vector<double> d = negated(g);
  const std::vector<VarStatus> lower(g.size(), VarStatus::kAtLower);
  ASSERT_EQ(brute_force(d, lower, none()).best, kBase + 4);
  expect_same_choice(shape_call(Shape::kEnds, 0, 1e-18), d, lower, none());
  for (int hint = 0; hint < 6; ++hint) {
    expect_same_choice(shape_call(Shape::kPeak, hint, 1e-18), d, lower,
                       none());
  }
  // The same ladder climbing to a peak and falling again.
  std::vector<double> peaked = g;
  for (int i = 0; i < 5; ++i) peaked.push_back(0.5 - 0.1 * i);
  const std::vector<VarStatus> lower11(peaked.size(), VarStatus::kAtLower);
  for (int hint = 0; hint < 11; ++hint) {
    expect_same_choice(shape_call(Shape::kPeak, hint, 1e-18),
                       negated(peaked), lower11, none());
  }
}

TEST(ChainPricing, FlatChainOffersOnlyTheFirstEligibleColumn) {
  const std::vector<double> d(12, -0.25);
  std::vector<VarStatus> status(12, VarStatus::kAtLower);
  status[0] = VarStatus::kBasic;
  status[5] = VarStatus::kAtUpper;
  const Call call = shape_call(Shape::kFlat, 0, 0.0);
  EXPECT_EQ(expect_same_choice(call, d, status, none()), 1);
  expect_same_choice(call, d, status, holding(0.25));
  expect_same_choice(call, d, status, holding(0.1));
  // Negative violations at lower: only the at-upper column can enter.
  const std::vector<double> up(12, 0.25);
  expect_same_choice(call, up, status, none());
}

TEST(ChainPricing, ValleyAndMonotoneChainsSkipTheInterior) {
  std::vector<double> valley;
  for (int k = 0; k < 36; ++k) valley.push_back(0.01 * (k - 20) * (k - 20));
  std::vector<double> falling;
  for (int k = 0; k < 36; ++k) falling.push_back(1.0 - 0.03 * k);
  std::vector<double> rising(falling.rbegin(), falling.rend());
  const std::vector<VarStatus> lower(36, VarStatus::kAtLower);
  for (const std::vector<double>* g : {&valley, &falling, &rising}) {
    const Call call = shape_call(Shape::kEnds, 0, 1e-15);
    EXPECT_LE(expect_same_choice(call, negated(*g), lower, none()), 3);
    for (const double held : {0.5, 1.0, 2.0, 4.0, 10.0}) {
      expect_same_choice(call, negated(*g), lower, holding(held));
    }
  }
}

TEST(ChainPricing, OnePointPeakIsFoundFromAnyHint) {
  for (int p = 0; p < 20; ++p) {
    std::vector<double> g(20);
    for (int k = 0; k < 20; ++k) g[k] = -3.0 - 0.1 * std::abs(k - p);
    g[p] = 2.0;
    const std::vector<VarStatus> lower(20, VarStatus::kAtLower);
    for (int hint = 0; hint < 20; ++hint) {
      const Call call = shape_call(Shape::kPeak, hint, 1e-15);
      const int evals = expect_same_choice(call, negated(g), lower, none());
      if (hint == p) {
        EXPECT_LE(evals, 3);
      }
      expect_same_choice(call, negated(g), lower, holding(1.0));
      expect_same_choice(call, negated(g), lower, holding(3.0));
    }
  }
}

TEST(ChainPricing, AtUpperColumnsAreOfferedInPlace) {
  util::Rng rng(5);
  for (int trial = 0; trial < 400; ++trial) {
    const int size = static_cast<int>(rng.uniform_int(4, 30));
    const int p = static_cast<int>(rng.uniform_int(0, size - 1));
    std::vector<double> g(size);
    for (int k = 0; k < size; ++k) g[k] = 1.0 - 0.05 * std::abs(k - p);
    std::vector<VarStatus> status(size, VarStatus::kAtLower);
    for (int k = 0; k < size; ++k) {
      const double r = rng.uniform(0, 1);
      if (r < 0.2) status[k] = VarStatus::kAtUpper;
      if (r > 0.9) status[k] = VarStatus::kBasic;
    }
    const std::vector<double> d = negated(g);
    const Incumbent inc =
        rng.uniform(0, 1) < 0.5 ? none() : holding(rng.uniform(0.5, 1.5));
    const int hint = static_cast<int>(rng.uniform_int(0, size - 1));
    expect_same_choice(shape_call(Shape::kPeak, hint, 1e-15), d, status, inc);
    // Shifting every reduced cost up keeps the tent and lets at-upper
    // columns (violation d) beat the best at-lower one.
    const double lift = rng.uniform(0.0, 3.0);
    std::vector<double> flipped = d;
    for (int k = 0; k < size; ++k) flipped[k] = d[k] + lift;
    expect_same_choice(shape_call(Shape::kPeak, hint, 1e-15), flipped, status,
                       inc);
  }
}

// ---- chains built the way the window LP builds them ----------------------

/// One task's share columns: column k is (-d_k, 1, p_k, ..., p_k) on a
/// duration row 0, a convexity row 1 and power rows 2 .. power_rows + 1,
/// with (d_k, p_k) on a random convex decreasing frontier.
struct RandomChain {
  int size = 0;
  std::vector<std::size_t> start;
  std::vector<int> row;
  std::vector<double> val;
  std::vector<double> duration;
  std::vector<double> power;
};

RandomChain make_chain(util::Rng& rng, int size, int power_rows) {
  RandomChain ch;
  ch.size = size;
  // Slopes d'(p) negative and increasing: a convex decreasing frontier.
  std::vector<double> slope(size - 1);
  for (double& s : slope) s = -rng.uniform(0.01, 4.0);
  std::sort(slope.begin(), slope.end());
  double p = rng.uniform(20, 40);
  double d = rng.uniform(5, 20);
  for (int k = 0; k < size; ++k) {
    ch.power.push_back(p);
    ch.duration.push_back(d);
    if (k + 1 < size) {
      const double dp = rng.uniform(0.2, 3.0);
      p += dp;
      d += slope[k] * dp;
    }
  }
  const double lowest = *std::min_element(ch.duration.begin(),
                                          ch.duration.end());
  for (double& x : ch.duration) x += 1.0 - lowest;  // keep durations > 0
  for (int k = 0; k < size; ++k) {
    ch.start.push_back(ch.row.size());
    ch.row.push_back(0);
    ch.val.push_back(-ch.duration[k]);
    ch.row.push_back(1);
    ch.val.push_back(1.0);
    for (int g = 0; g < power_rows; ++g) {
      ch.row.push_back(2 + g);
      ch.val.push_back(ch.power[k]);
    }
  }
  ch.start.push_back(ch.row.size());
  return ch;
}

ChainSet find(const RandomChain& ch, double upper = 1.0) {
  const std::vector<double> lb(ch.size, 0.0);
  const std::vector<double> ub(ch.size, upper);
  const std::vector<double> cost(ch.size, 0.0);
  return find_chains(ch.size, ch.start.data(), ch.row.data(), ch.val.data(),
                     lb.data(), ub.data(), cost.data(), 1e-7);
}

/// Reduced costs with the simplex's own arithmetic (zero cost).
std::vector<double> reduced_costs(const RandomChain& ch,
                                  const std::vector<double>& y) {
  std::vector<double> d(ch.size);
  for (int k = 0; k < ch.size; ++k) {
    d[k] = 0.0 - kernels::gather_dot(ch.start[k + 1] - ch.start[k],
                                     ch.row.data() + ch.start[k],
                                     ch.val.data() + ch.start[k], y.data());
  }
  return d;
}

TEST(ChainPricing, FindsWindowShareChainsAndRejectsOthers) {
  util::Rng rng(11);
  const RandomChain ch = make_chain(rng, 12, 2);
  const ChainSet set = find(ch);
  ASSERT_EQ(set.chains.size(), 1u);
  EXPECT_EQ(set.chains[0].size, 12);
  EXPECT_EQ(set.chains[0].b_begin - set.chains[0].rows_begin, 1);  // A: dur
  EXPECT_EQ(set.chains[0].c_begin - set.chains[0].b_begin, 2);     // B: pow
  EXPECT_TRUE(set.chains[0].zero_cost);

  // A zigzag breaks convexity.
  RandomChain zig = ch;
  zig.val[zig.start[5] + 2] = zig.val[zig.start[5] + 3] =
      0.5 * (ch.power[4] + ch.power[5]) + 0.45 * (ch.power[6] - ch.power[4]);
  EXPECT_TRUE(find(zig).chains.empty());
  // A third varying sequence.
  RandomChain third = ch;
  third.val[third.start[3] + 3] += 0.5;
  EXPECT_TRUE(find(third).chains.empty());
  // Too short.
  EXPECT_TRUE(find(make_chain(rng, 3, 1)).chains.empty());
  // Fixed bounds: nonbasic columns are not eligible, left to the scan.
  EXPECT_TRUE(find(ch, 0.0).chains.empty());
}

/// Random duals over the chain's rows, sometimes with the tangent laid
/// along a frontier edge (two tied columns) and the chain's best violation
/// placed near `target`.
std::vector<double> random_duals(util::Rng& rng, const RandomChain& ch,
                                 int power_rows, double target) {
  std::vector<double> y(2 + power_rows, 0.0);
  const double mode = rng.uniform(0, 1);
  if (mode < 0.08) return y;  // flat: every A and B dual is 0
  y[0] = rng.uniform(-2, 2);
  for (int g = 0; g < power_rows; ++g) {
    y[2 + g] = mode < 0.15 ? 0.0 : rng.uniform(-1.0, 0.3);
  }
  if (mode > 0.7) {
    // Tangent along edge e: -y_dur (d_{e+1} - d_e) + beta (p_{e+1} - p_e) = 0.
    const int e = static_cast<int>(rng.uniform_int(0, ch.size - 2));
    double beta = 0.0;
    for (int g = 0; g < power_rows; ++g) beta += y[2 + g];
    y[0] = beta * (ch.power[e + 1] - ch.power[e]) /
           (ch.duration[e + 1] - ch.duration[e]);
  }
  double top = -std::numeric_limits<double>::infinity();
  for (int k = 0; k < ch.size; ++k) {
    double h = -ch.duration[k] * y[0];
    for (int g = 0; g < power_rows; ++g) h += ch.power[k] * y[2 + g];
    top = std::max(top, h);
  }
  y[1] = target - top;
  return y;
}

TEST(ChainPricing, RandomConvexChainsMatchTheScan) {
  util::Rng rng(2024);
  long calls = 0;
  long evaluations = 0;
  for (int trial = 0; trial < 3000; ++trial) {
    const int size = static_cast<int>(rng.uniform_int(4, 40));
    const int power_rows = static_cast<int>(rng.uniform_int(1, 3));
    const RandomChain ch = make_chain(rng, size, power_rows);
    const ChainSet set = find(ch);
    ASSERT_EQ(set.chains.size(), 1u) << "trial " << trial;
    const double held = rng.uniform(0.0, 2.0);
    const double targets[] = {kDualTol, held, held * (1 + 2 * kTieRel),
                              rng.uniform(-1, 1)};
    const double target = targets[rng.uniform_int(0, 3)];
    const std::vector<double> y = random_duals(rng, ch, power_rows, target);
    const std::vector<double> d = reduced_costs(ch, y);
    std::vector<VarStatus> status(size, VarStatus::kAtLower);
    for (int k = 0; k < size; ++k) {
      const double r = rng.uniform(0, 1);
      if (r < 0.1) status[k] = VarStatus::kBasic;
      if (r > 0.95) status[k] = VarStatus::kAtUpper;
    }
    const Incumbent inc = rng.uniform(0, 1) < 0.5 ? none() : holding(held);
    const Call call = classify(set, set.chains[0], y.data());
    evaluations += expect_same_choice(call, d, status, inc);
    ++calls;
    if (testing::Test::HasFailure()) {
      ADD_FAILURE() << "trial " << trial << " size " << size << " shape "
                    << static_cast<int>(call.shape) << " hint " << call.hint;
      return;
    }
  }
  // The walk is worth having: far fewer evaluations than the scan.
  EXPECT_LT(static_cast<double>(evaluations) / calls, 10.0);
}

TEST(ChainPricing, ValuesPerturbedWithinTheBoundMatchTheScan) {
  // The walk may assume only |value - exact| <= two_err / 2. Perturb
  // every computed reduced cost by up to that much, with values and the
  // incumbent placed within the bound of each other and of dual_tol.
  util::Rng rng(77);
  for (int trial = 0; trial < 3000; ++trial) {
    const int size = static_cast<int>(rng.uniform_int(4, 40));
    const int power_rows = static_cast<int>(rng.uniform_int(1, 2));
    const RandomChain ch = make_chain(rng, size, power_rows);
    const ChainSet set = find(ch);
    ASSERT_EQ(set.chains.size(), 1u);
    const double err = 1e-8;
    const double held = rng.uniform(1e-7, 1e-6);
    const double targets[] = {kDualTol + rng.uniform(-err, err),
                              held + rng.uniform(-err, err), held};
    const double target = targets[rng.uniform_int(0, 2)];
    const std::vector<double> y = random_duals(rng, ch, power_rows, target);
    Call call = classify(set, set.chains[0], y.data());
    if (call.shape == Shape::kFlat || call.shape == Shape::kScan) continue;
    call.two_err = 2 * err;
    std::vector<double> d = reduced_costs(ch, y);
    for (double& v : d) v += rng.uniform(-0.45 * err, 0.45 * err);
    std::vector<VarStatus> status(size, VarStatus::kAtLower);
    for (int k = 0; k < size; ++k) {
      if (rng.uniform(0, 1) < 0.1) status[k] = VarStatus::kBasic;
    }
    const Incumbent inc = rng.uniform(0, 1) < 0.5 ? none() : holding(held);
    expect_same_choice(call, d, status, inc);
    if (testing::Test::HasFailure()) {
      ADD_FAILURE() << "trial " << trial;
      return;
    }
  }
}

TEST(ChainPricing, StepsNearTheRoundingBoundMatchTheScan) {
  // Peaks and valleys whose steps are as small as the rounding bound, so
  // perturbed values reorder neighbours: only certified rises and falls
  // may bound a gap.
  util::Rng rng(91);
  const double err = 1e-8;
  for (int trial = 0; trial < 20000; ++trial) {
    const int size = static_cast<int>(rng.uniform_int(4, 24));
    const bool peak = rng.uniform(0, 1) < 0.6;
    const int turn = static_cast<int>(rng.uniform_int(0, size - 1));
    std::vector<double> exact(size);
    double g = 0.0;
    for (int k = 0; k < size; ++k) {
      exact[k] = g;
      const double step = rng.uniform(0.0, 3.0 * err);
      g += (k < turn) == peak ? step : -step;
    }
    const double top = *std::max_element(exact.begin(), exact.end());
    const double held = rng.uniform(1e-7, 2e-7);
    const double targets[] = {kDualTol, held, held * (1 + kTieRel),
                              held - err};
    const double shift = targets[rng.uniform_int(0, 3)] - top;
    std::vector<double> d(size);
    for (int k = 0; k < size; ++k) {
      d[k] = -(exact[k] + shift) + rng.uniform(-0.45 * err, 0.45 * err);
    }
    std::vector<VarStatus> status(size, VarStatus::kAtLower);
    for (int k = 0; k < size; ++k) {
      const double r = rng.uniform(0, 1);
      if (r < 0.1) status[k] = VarStatus::kBasic;
      if (r > 0.95) status[k] = VarStatus::kAtUpper;
    }
    const Incumbent inc = rng.uniform(0, 1) < 0.5 ? none() : holding(held);
    const int hint = static_cast<int>(rng.uniform_int(0, size - 1));
    const Shape shape = peak ? Shape::kPeak : Shape::kEnds;
    expect_same_choice(shape_call(shape, hint, 2 * err), d, status, inc);
    if (testing::Test::HasFailure()) {
      ADD_FAILURE() << "trial " << trial;
      return;
    }
  }
}

}  // namespace
}  // namespace powerlim::lp::chain
