// Exact dyadic-rational arithmetic (check/rational.h): the foundation
// the certificate checker's soundness rests on. Every finite double is
// representable exactly, and +/-/* never round.
#include "check/rational.h"

#include <gtest/gtest.h>

#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <stdexcept>
#include <vector>

namespace powerlim::check {
namespace {

/// x == y, exactly.
bool same(const BigInt& x, const BigInt& y) { return (x + -y).is_zero(); }

TEST(BigInt, SmallArithmetic) {
  const BigInt a = BigInt(123456789);
  const BigInt b = BigInt(-987654321);
  EXPECT_TRUE(same(a + b, BigInt(-864197532)));
  EXPECT_TRUE(same(a + -b, BigInt(1111111110)));
  EXPECT_TRUE(same(a * b, BigInt(-121932631112635269LL)));
  EXPECT_EQ((a * b).sign(), -1);
  EXPECT_TRUE(BigInt(0).is_zero());
}

TEST(BigInt, MultiLimbCarries) {
  // 2^96 spans four 32-bit limbs; (2^96 - 1) + 1 must carry end to end.
  const BigInt one = BigInt(1);
  const BigInt big = one.shifted_left(96);
  EXPECT_TRUE(same(big + -one + one, big));
  EXPECT_EQ(big.bit_length(), 97);
  EXPECT_EQ(big.trailing_zero_bits(), 96);
  EXPECT_EQ((big + -one).bit_length(), 96);
  EXPECT_EQ((big + -one).trailing_zero_bits(), 0);
  // (2^48)^2 = 2^96.
  const BigInt half = one.shifted_left(48);
  EXPECT_TRUE(same(half * half, big));
}

TEST(BigInt, CompareAndShift) {
  const BigInt a = BigInt(5);
  EXPECT_LT((BigInt(-7) + -a).sign(), 0);
  EXPECT_GT((a + -BigInt(-7)).sign(), 0);
  EXPECT_TRUE(same(a.shifted_left(3), BigInt(40)));
  EXPECT_TRUE(same(a.shifted_left(3).shifted_right(3), a));
  EXPECT_EQ(BigInt(40).trailing_zero_bits(), 3);
}

TEST(Dyadic, RoundTripsDoublesExactly) {
  for (double v : {0.0, 1.0, -1.5, 0.1, 3.141592653589793, 1e-300, 1e300,
                   -6.25e-3, 123456789.123456789}) {
    EXPECT_EQ(Dyadic::from_double(v).to_double(), v) << v;
  }
}

TEST(Dyadic, ExactAddition) {
  // 0.1 + 0.2 != 0.3 in doubles; in dyadic arithmetic the sum equals
  // exactly the double 0.1 + 0.2 (each operand converted exactly).
  const Dyadic a = Dyadic::from_double(0.1);
  const Dyadic b = Dyadic::from_double(0.2);
  const Dyadic s = a + b;
  EXPECT_NE(s.compare(Dyadic::from_double(0.3)), 0);
  EXPECT_EQ(s.to_double(), 0.1 + 0.2);
}

TEST(Dyadic, MultiplicationIsExact) {
  // (1/2^30) * (1/2^30) = 1/2^60: exact in dyadic form, and distinct
  // from any nearby value.
  const Dyadic tiny = Dyadic::from_double(std::ldexp(1.0, -30));
  const Dyadic p = tiny * tiny;
  EXPECT_EQ(p.compare(Dyadic::from_double(std::ldexp(1.0, -60))), 0);
  EXPECT_EQ(p.to_double(), std::ldexp(1.0, -60));
}

TEST(Dyadic, ComparisonAcrossScales) {
  const Dyadic small = Dyadic::from_double(1e-12);
  const Dyadic large = Dyadic::from_double(1e12);
  EXPECT_LT(small.compare(large), 0);
  EXPECT_GT(large.compare(small), 0);
  EXPECT_LT(Dyadic::from_double(-1e12).compare(small), 0);
  EXPECT_EQ(Dyadic::from_int(0).compare(Dyadic::from_double(0.0)), 0);
}

TEST(Dyadic, SubtractionCancelsExactly) {
  // Catastrophic cancellation in doubles is exact here: (a + b) - a == b
  // for any operands, including wildly different magnitudes.
  const Dyadic a = Dyadic::from_double(1e16);
  const Dyadic b = Dyadic::from_double(1e-16);
  const Dyadic diff = (a + b) - a;
  EXPECT_EQ(diff.compare(b), 0);
  EXPECT_EQ(diff.to_double(), 1e-16);
}

TEST(Dyadic, AbsAndMax) {
  const Dyadic neg = Dyadic::from_double(-2.5);
  EXPECT_EQ(neg.abs().to_double(), 2.5);
  EXPECT_EQ(dyadic_max(neg, Dyadic::from_double(1.0)).to_double(), 1.0);
}

TEST(Dyadic, AccumulatedSumMatchesIntegerModel) {
  // Summing 0.1 a thousand times drifts in doubles; dyadic accumulation
  // equals 1000 * 0.1 computed exactly.
  Dyadic sum = Dyadic::from_int(0);
  const Dyadic tenth = Dyadic::from_double(0.1);
  for (int i = 0; i < 1000; ++i) sum = sum + tenth;
  EXPECT_EQ(sum.compare(tenth * Dyadic::from_int(1000)), 0);
}

TEST(Dyadic, HugeExponentsToDoubleSaturatesFinitely) {
  // A product of two large doubles overflows the double range; to_double
  // must not trap, and comparisons stay exact.
  const Dyadic big = Dyadic::from_double(1e300);
  const Dyadic prod = big * big;  // 1e600: not representable as double
  EXPECT_GT(prod.compare(big), 0);
  EXPECT_TRUE(std::isinf(prod.to_double()) ||
              prod.to_double() == std::numeric_limits<double>::max());
}

// ExactAccumulator must equal Dyadic arithmetic on every input. The
// doubles below are drawn from their bit patterns, so they cover the
// whole binary64 range: subnormals, both extremes, and runs of nearby
// magnitudes whose sums carry and borrow across limbs.
class RandomDoubles {
 public:
  explicit RandomDoubles(std::uint64_t seed) : rng_(seed) {}

  double next() {
    const std::uint64_t bits = rng_();
    const std::uint64_t sign = bits & (1ull << 63);
    const std::uint64_t frac = bits & ((1ull << 52) - 1);
    switch (rng_() % 8) {
      case 0:  // any finite double
        return std::bit_cast<double>(
            sign | (rng_() % 0x7ff) << 52 | frac);
      case 1:  // subnormal
        return std::bit_cast<double>(sign | frac);
      case 2: {
        constexpr double kEdges[] = {0.0, DBL_MAX, DBL_MIN, DBL_TRUE_MIN,
                                     1.0, 0.5};
        const double v = kEdges[rng_() % 6];
        return sign != 0 ? -v : v;
      }
      default:  // moderate magnitudes, so terms overlap and cancel
        return std::bit_cast<double>(
            sign | (1023 - 70 + rng_() % 140) << 52 | frac);
    }
  }

 private:
  std::mt19937_64 rng_;
};

Dyadic exact(const ExactAccumulator& acc) { return acc.to_dyadic(); }

TEST(ExactAccumulator, StartsAtZero) {
  ExactAccumulator acc;
  EXPECT_EQ(acc.sign(), 0);
  EXPECT_TRUE(exact(acc).is_zero());
  acc.add(0.0);
  acc.add(-0.0);
  acc.add_product(0.0, DBL_MAX);
  EXPECT_EQ(acc.sign(), 0);
}

TEST(ExactAccumulator, MatchesDyadicOnRandomSums) {
  RandomDoubles gen(20251019);
  ExactAccumulator acc;
  for (int trial = 0; trial < 400; ++trial) {
    acc.clear();
    Dyadic want;
    const int terms = 1 + trial % 40;
    for (int t = 0; t < terms; ++t) {
      const double a = gen.next();
      const double b = gen.next();
      switch (t % 3) {
        case 0:
          acc.add(a);
          want += Dyadic::from_double(a);
          break;
        case 1:
          acc.add_product(a, b);
          want += Dyadic::from_double(a) * Dyadic::from_double(b);
          break;
        default: {
          const Dyadic d = Dyadic::from_double(a) * Dyadic::from_double(b) +
                           Dyadic::from_double(b);
          acc.add(d);
          want += d;
        }
      }
      ASSERT_EQ(exact(acc).compare(want), 0) << "trial " << trial;
      ASSERT_EQ(acc.sign(), want.sign()) << "trial " << trial;
    }
  }
}

TEST(ExactAccumulator, MatchesDyadicOnRandomScaledSums) {
  // The Lagrangian's shape: a reduced cost z = c - sum y_i a_i, then
  // g += z * bound, at magnitudes across the whole range.
  RandomDoubles gen(17);
  ExactAccumulator z;
  ExactAccumulator g;
  Dyadic want_g;
  for (int col = 0; col < 300; ++col) {
    z.clear();
    const double c = gen.next();
    z.add(c);
    Dyadic want_z = Dyadic::from_double(c);
    for (int k = 0; k < col % 12; ++k) {
      const double y = gen.next();
      const double a = gen.next();
      z.add_product(-y, a);
      want_z = want_z - Dyadic::from_double(y) * Dyadic::from_double(a);
    }
    ASSERT_EQ(exact(z).compare(want_z), 0) << "column " << col;
    const double bound = gen.next();
    g.add_scaled(z, bound);
    want_g += want_z * Dyadic::from_double(bound);
    ASSERT_EQ(exact(g).compare(want_g), 0) << "column " << col;
  }
}

TEST(ExactAccumulator, CancelsExactlyToZero) {
  // Terms that cancel in any order leave exactly zero, including when the
  // running sum changed sign and limbs on the way.
  RandomDoubles gen(5);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<std::pair<double, double>> terms;
    for (int t = 0; t < 1 + trial % 16; ++t) {
      terms.emplace_back(gen.next(), gen.next());
    }
    ExactAccumulator acc;
    for (const auto& [a, b] : terms) acc.add_product(a, b);
    for (std::size_t t = terms.size(); t-- > 0;) {
      acc.add_product(-terms[t].first, terms[t].second);
    }
    EXPECT_EQ(acc.sign(), 0) << "trial " << trial;
    EXPECT_TRUE(exact(acc).is_zero()) << "trial " << trial;
  }
  ExactAccumulator acc;
  acc.add(0.1);
  acc.add(0.2);
  acc.add(-0.3);
  // 0.1 + 0.2 - 0.3 is 2^-55 exactly, not 0 and not 5.55e-17 rounded.
  EXPECT_EQ(exact(acc).compare(Dyadic::from_double(std::ldexp(1.0, -55))), 0);
  acc.add(-std::ldexp(1.0, -55));
  EXPECT_EQ(acc.sign(), 0);
}

TEST(ExactAccumulator, CarriesAcrossLimbs) {
  // 2^63 + 2^63 = 2^64 empties the lowest limb; 2^64 - 2^-1074 borrows
  // through every limb in between.
  ExactAccumulator acc;
  acc.add(std::ldexp(1.0, 63));
  acc.add(std::ldexp(1.0, 63));
  EXPECT_EQ(exact(acc).compare(Dyadic::from_double(std::ldexp(1.0, 64))), 0);
  acc.add(-DBL_TRUE_MIN);
  EXPECT_EQ(exact(acc).compare(Dyadic::from_double(std::ldexp(1.0, 64)) -
                               Dyadic::from_double(DBL_TRUE_MIN)),
            0);
  acc.add(-std::ldexp(1.0, 65));
  EXPECT_EQ(acc.sign(), -1);
  EXPECT_EQ(exact(acc).compare(-Dyadic::from_double(std::ldexp(1.0, 64)) -
                               Dyadic::from_double(DBL_TRUE_MIN)),
            0);
}

TEST(ExactAccumulator, ThreeFactorProductsAtBothEndsOfTheRange) {
  // The largest and smallest scaled terms the checker can form:
  // DBL_MAX^3 near 2^3072 and DBL_TRUE_MIN^3 = 2^-3222, held at once.
  const Dyadic max = Dyadic::from_double(DBL_MAX);
  const Dyadic min = Dyadic::from_double(DBL_TRUE_MIN);
  ExactAccumulator big;
  ExactAccumulator tiny;
  big.add_product(DBL_MAX, DBL_MAX);
  big.add_product(DBL_MAX, DBL_MAX);  // 2 * DBL_MAX^2 carries past 2^2048
  tiny.add_product(DBL_TRUE_MIN, -DBL_TRUE_MIN);
  ExactAccumulator g;
  g.add_scaled(big, DBL_MAX);
  g.add_scaled(tiny, DBL_TRUE_MIN);
  g.add_scaled(big, -DBL_MAX);
  EXPECT_EQ(exact(g).compare(-(min * min * min)), 0);
  EXPECT_EQ(g.sign(), -1);
  g.add_scaled(big, DBL_MAX);
  const Dyadic two = Dyadic::from_int(2);
  EXPECT_EQ(exact(g).compare(two * max * max * max - min * min * min), 0);
  EXPECT_EQ(exact(g).to_double(), std::numeric_limits<double>::infinity());
}

TEST(ExactAccumulator, RejectsNonFiniteInput) {
  ExactAccumulator acc;
  EXPECT_THROW(acc.add(std::numeric_limits<double>::infinity()),
               std::invalid_argument);
  EXPECT_THROW(acc.add_product(1.0, std::nan("")), std::invalid_argument);
  ExactAccumulator z;
  z.add(1.0);
  EXPECT_THROW(acc.add_scaled(z, -std::numeric_limits<double>::infinity()),
               std::invalid_argument);
  EXPECT_EQ(acc.sign(), 0);
}

}  // namespace
}  // namespace powerlim::check
