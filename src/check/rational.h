// Exact dyadic-rational arithmetic for the certificate checker.
//
// Every number the LP pipeline touches is an IEEE-754 double, and every
// finite double is exactly a (long) integer times a power of two. The
// certificate checker therefore does not need general rationals: dyadic
// rationals  mant * 2^exp2  with an arbitrary-precision mantissa are
// closed under +, -, * and capture each input exactly. Re-deriving a
// constraint row and evaluating it at the solver's point in this type
// involves no rounding anywhere - the only approximation in the whole
// verification is the final comparison against the (also exactly
// converted) tolerance.
//
// Division is deliberately absent: the checker never divides, so the
// dyadic closure property is never broken.
//
// Dyadic is the value type: every comparison and every conversion for a
// report goes through it. Its BigInt mantissa lives on the heap, though,
// so a long sum of Dyadic products allocates on every operation. Long
// sums therefore go through ExactAccumulator instead: a fixed-point
// register wide enough for every product the checker forms from finite
// doubles, which adds exactly and allocates nothing, and hands its
// total back as a Dyadic.
#pragma once

#include <cstdint>
#include <vector>

namespace powerlim::check {

class ExactAccumulator;

/// Arbitrary-precision signed integer. Supports exactly the operations
/// Dyadic needs: add, negate, multiply, shift.
class BigInt {
 public:
  BigInt() = default;
  explicit BigInt(long long value);

  bool is_zero() const { return sign_ == 0; }
  /// -1, 0, or +1.
  int sign() const { return sign_; }

  BigInt operator+(const BigInt& o) const;
  BigInt operator*(const BigInt& o) const;
  BigInt operator-() const;

  BigInt shifted_left(std::int64_t bits) const;
  /// Number of trailing zero bits (0 for zero).
  std::int64_t trailing_zero_bits() const;
  BigInt shifted_right(std::int64_t bits) const;
  /// Bit length of the magnitude (0 for zero).
  std::int64_t bit_length() const;

  /// Nearest double (rounding only happens here, for reporting).
  // powerlint: allow(float-in-exact) -- the one sanctioned BigInt->double boundary
  double to_double() const;

 private:
  friend class ExactAccumulator;

  static int compare_mag(const std::vector<std::uint32_t>& a,
                         const std::vector<std::uint32_t>& b);
  static std::vector<std::uint32_t> add_mag(
      const std::vector<std::uint32_t>& a,
      const std::vector<std::uint32_t>& b);
  /// Requires |a| >= |b|.
  static std::vector<std::uint32_t> sub_mag(
      const std::vector<std::uint32_t>& a,
      const std::vector<std::uint32_t>& b);
  void trim();

  int sign_ = 0;
  /// Little-endian base-2^32 limbs of the magnitude; empty iff zero.
  std::vector<std::uint32_t> mag_;
};

/// Exact dyadic rational: mant * 2^exp2. Normalized so the mantissa is
/// odd (or zero), keeping limb growth bounded across long sums.
class Dyadic {
 public:
  Dyadic() = default;

  /// Exact conversion; throws std::invalid_argument on NaN/Inf.
  // powerlint: allow(float-in-exact) -- ingest boundary; conversion is exact, no FP arithmetic
  static Dyadic from_double(double value);
  static Dyadic from_int(long long value);

  bool is_zero() const { return mant_.is_zero(); }
  int sign() const { return mant_.sign(); }

  Dyadic operator+(const Dyadic& o) const;
  Dyadic operator-(const Dyadic& o) const;
  Dyadic operator*(const Dyadic& o) const;
  Dyadic operator-() const;
  Dyadic& operator+=(const Dyadic& o) { return *this = *this + o; }

  /// <0, 0, >0 like strcmp. Exact.
  int compare(const Dyadic& o) const;
  bool operator<(const Dyadic& o) const { return compare(o) < 0; }
  bool operator>(const Dyadic& o) const { return compare(o) > 0; }

  Dyadic abs() const;

  /// Nearest double (for violation reports; never used in comparisons).
  // powerlint: allow(float-in-exact) -- report boundary; never feeds a comparison
  double to_double() const;

 private:
  friend class ExactAccumulator;

  Dyadic(BigInt mant, std::int64_t exp2);
  void normalize();

  BigInt mant_;
  std::int64_t exp2_ = 0;
};

/// max(a, b) by exact comparison.
inline const Dyadic& dyadic_max(const Dyadic& a, const Dyadic& b) {
  return a.compare(b) >= 0 ? a : b;
}

/// Exact sum of doubles, of products of two doubles, and of such a sum
/// times a double, in the style of a Kulisch accumulator: sign and
/// magnitude, the magnitude a fixed-point number in 64-bit limbs whose
/// lowest bit weighs 2^kLsbExp. Nothing rounds and nothing allocates;
/// only the limbs between the lowest and highest nonzero one are touched.
///
/// The range comes from IEEE-754 binary64. A finite double is m * 2^e
/// with m < 2^53 and e >= -1074, and its magnitude is below 2^1024. So a
/// product of two finite doubles lies in [2^-2148, 2^2048), and a scaled
/// term s * f, with s a sum of fewer than 2^64 such products, in
/// [2^-3222, 2^3136). The register spans [2^kLsbExp, 2^3200): every
/// finite double, every product and every scaled term fits, and 2^64 of
/// the largest scaled terms still sum without overflow. So no finite
/// input is ever out of range.
class ExactAccumulator {
 public:
  ExactAccumulator() = default;

  /// Back to zero; touches only the limbs in use.
  void clear();

  /// += v. Throws std::invalid_argument on NaN/Inf.
  // powerlint: allow(float-in-exact) -- ingest boundary; decomposed bitwise, no FP arithmetic
  void add(double v);
  /// += v. Throws std::out_of_range when v lies outside the register,
  /// which no sum of the terms above can produce.
  void add(const Dyadic& v);
  /// += a * b, exactly. Throws std::invalid_argument on NaN/Inf.
  // powerlint: allow(float-in-exact) -- ingest boundary; decomposed bitwise, no FP arithmetic
  void add_product(double a, double b);
  /// += s * f, exactly. `s` must hold only doubles and products of two
  /// doubles (never a scaled term); otherwise throws std::out_of_range.
  // powerlint: allow(float-in-exact) -- ingest boundary; decomposed bitwise, no FP arithmetic
  void add_scaled(const ExactAccumulator& s, double f);

  /// -1, 0, or +1.
  int sign() const { return lo_ >= hi_ ? 0 : (neg_ ? -1 : 1); }

  /// The exact total.
  Dyadic to_dyadic() const;

  /// Weight of the lowest bit: 2^kLsbExp, a whole number of limbs below
  /// 2^-3222 so that add_scaled can multiply s limb by limb: s's lowest
  /// nonzero limb (at or above 2^-2176) times a double's 2^-1074 still
  /// starts inside the register.
  static constexpr int kLsbExp = -3264;
  /// 101 limbs of 64 bits: the register's top bit weighs 2^3199.
  static constexpr int kLimbs = 101;

 private:
  /// += (-1)^negative * sum_i w[i] * 2^(64 * (at + i) + kLsbExp).
  void add_limbs(const std::uint64_t* w, int n, int at, bool negative);
  /// += (-1)^negative * v * 2^(bit + kLsbExp), for v < 2^128.
  __extension__ void add_word(unsigned __int128 v, std::int64_t bit,
                              bool negative);

  std::uint64_t limb_[kLimbs] = {};
  /// Nonzero limbs lie in [lo_, hi_); the value is zero iff lo_ >= hi_.
  int lo_ = 0;
  int hi_ = 0;
  /// Sign of a nonzero value; false when zero.
  bool neg_ = false;
};

}  // namespace powerlim::check
