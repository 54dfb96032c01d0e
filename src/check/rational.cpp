#include "check/rational.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <stdexcept>

namespace powerlim::check {

namespace {

constexpr std::uint64_t kBase = 1ull << 32;

// GCC and Clang provide a 128-bit integer for the 64x64-bit limb
// products; __extension__ keeps -Wpedantic quiet about it.
__extension__ typedef unsigned __int128 u128;

/// A finite double as (-1)^neg * mant * 2^exp, read from its bits.
struct Parts {
  bool neg;
  std::uint64_t mant;  // < 2^53; zero for +-0
  int exp;             // >= -1074
};

// powerlint: allow(float-in-exact) -- ingest boundary; the value is only reinterpreted as bits
Parts decompose(double v) {
  const std::uint64_t bits = std::bit_cast<std::uint64_t>(v);
  const int biased = static_cast<int>((bits >> 52) & 0x7ff);
  if (biased == 0x7ff) {
    throw std::invalid_argument("ExactAccumulator: non-finite value");
  }
  std::uint64_t mant = bits & ((1ull << 52) - 1);
  // Subnormals have no implicit bit and the exponent of biased 1.
  if (biased != 0) mant |= 1ull << 52;
  return {(bits >> 63) != 0, mant, std::max(biased, 1) - 1075};
}

}  // namespace

BigInt::BigInt(long long value) {
  if (value == 0) return;
  sign_ = value < 0 ? -1 : 1;
  // Negate via unsigned arithmetic so LLONG_MIN is well-defined.
  std::uint64_t mag = value < 0
                          ? ~static_cast<std::uint64_t>(value) + 1
                          : static_cast<std::uint64_t>(value);
  while (mag != 0) {
    mag_.push_back(static_cast<std::uint32_t>(mag & 0xffffffffu));
    mag >>= 32;
  }
}

void BigInt::trim() {
  while (!mag_.empty() && mag_.back() == 0) mag_.pop_back();
  if (mag_.empty()) sign_ = 0;
}

int BigInt::compare_mag(const std::vector<std::uint32_t>& a,
                        const std::vector<std::uint32_t>& b) {
  if (a.size() != b.size()) return a.size() < b.size() ? -1 : 1;
  for (std::size_t i = a.size(); i-- > 0;) {
    if (a[i] != b[i]) return a[i] < b[i] ? -1 : 1;
  }
  return 0;
}

std::vector<std::uint32_t> BigInt::add_mag(
    const std::vector<std::uint32_t>& a,
    const std::vector<std::uint32_t>& b) {
  const std::vector<std::uint32_t>& lo = a.size() < b.size() ? a : b;
  const std::vector<std::uint32_t>& hi = a.size() < b.size() ? b : a;
  std::vector<std::uint32_t> out;
  out.reserve(hi.size() + 1);
  std::uint64_t carry = 0;
  for (std::size_t i = 0; i < hi.size(); ++i) {
    std::uint64_t sum = carry + hi[i] + (i < lo.size() ? lo[i] : 0u);
    out.push_back(static_cast<std::uint32_t>(sum & 0xffffffffu));
    carry = sum >> 32;
  }
  if (carry != 0) out.push_back(static_cast<std::uint32_t>(carry));
  return out;
}

std::vector<std::uint32_t> BigInt::sub_mag(
    const std::vector<std::uint32_t>& a,
    const std::vector<std::uint32_t>& b) {
  std::vector<std::uint32_t> out;
  out.reserve(a.size());
  std::int64_t borrow = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    std::int64_t diff = static_cast<std::int64_t>(a[i]) - borrow -
                        (i < b.size() ? static_cast<std::int64_t>(b[i]) : 0);
    borrow = 0;
    if (diff < 0) {
      diff += static_cast<std::int64_t>(kBase);
      borrow = 1;
    }
    out.push_back(static_cast<std::uint32_t>(diff));
  }
  return out;
}

BigInt BigInt::operator+(const BigInt& o) const {
  if (sign_ == 0) return o;
  if (o.sign_ == 0) return *this;
  BigInt out;
  if (sign_ == o.sign_) {
    out.sign_ = sign_;
    out.mag_ = add_mag(mag_, o.mag_);
  } else {
    const int cmp = compare_mag(mag_, o.mag_);
    if (cmp == 0) return out;  // zero
    if (cmp > 0) {
      out.sign_ = sign_;
      out.mag_ = sub_mag(mag_, o.mag_);
    } else {
      out.sign_ = o.sign_;
      out.mag_ = sub_mag(o.mag_, mag_);
    }
  }
  out.trim();
  return out;
}

BigInt BigInt::operator-() const {
  BigInt out = *this;
  out.sign_ = -out.sign_;
  return out;
}

BigInt BigInt::operator*(const BigInt& o) const {
  BigInt out;
  if (sign_ == 0 || o.sign_ == 0) return out;
  out.sign_ = sign_ * o.sign_;
  out.mag_.assign(mag_.size() + o.mag_.size(), 0);
  for (std::size_t i = 0; i < mag_.size(); ++i) {
    std::uint64_t carry = 0;
    for (std::size_t j = 0; j < o.mag_.size(); ++j) {
      std::uint64_t cur = out.mag_[i + j] + carry +
                          static_cast<std::uint64_t>(mag_[i]) * o.mag_[j];
      out.mag_[i + j] = static_cast<std::uint32_t>(cur & 0xffffffffu);
      carry = cur >> 32;
    }
    std::size_t k = i + o.mag_.size();
    while (carry != 0) {
      std::uint64_t cur = out.mag_[k] + carry;
      out.mag_[k] = static_cast<std::uint32_t>(cur & 0xffffffffu);
      carry = cur >> 32;
      ++k;
    }
  }
  out.trim();
  return out;
}

BigInt BigInt::shifted_left(std::int64_t bits) const {
  if (bits < 0) return shifted_right(-bits);
  if (sign_ == 0 || bits == 0) return *this;
  BigInt out;
  out.sign_ = sign_;
  const std::size_t limb_shift = static_cast<std::size_t>(bits / 32);
  const unsigned bit_shift = static_cast<unsigned>(bits % 32);
  out.mag_.assign(mag_.size() + limb_shift + 1, 0);
  for (std::size_t i = 0; i < mag_.size(); ++i) {
    const std::uint64_t shifted = static_cast<std::uint64_t>(mag_[i])
                                  << bit_shift;
    out.mag_[i + limb_shift] |= static_cast<std::uint32_t>(shifted);
    out.mag_[i + limb_shift + 1] |=
        static_cast<std::uint32_t>(shifted >> 32);
  }
  out.trim();
  return out;
}

BigInt BigInt::shifted_right(std::int64_t bits) const {
  if (bits < 0) return shifted_left(-bits);
  if (sign_ == 0 || bits == 0) return *this;
  const std::size_t limb_shift = static_cast<std::size_t>(bits / 32);
  const unsigned bit_shift = static_cast<unsigned>(bits % 32);
  BigInt out;
  if (limb_shift >= mag_.size()) return out;
  out.sign_ = sign_;
  out.mag_.assign(mag_.size() - limb_shift, 0);
  for (std::size_t i = 0; i < out.mag_.size(); ++i) {
    std::uint64_t cur = mag_[i + limb_shift] >> bit_shift;
    if (bit_shift != 0 && i + limb_shift + 1 < mag_.size()) {
      cur |= static_cast<std::uint64_t>(mag_[i + limb_shift + 1])
             << (32 - bit_shift);
    }
    out.mag_[i] = static_cast<std::uint32_t>(cur);
  }
  out.trim();
  return out;
}

std::int64_t BigInt::trailing_zero_bits() const {
  if (sign_ == 0) return 0;
  std::int64_t bits = 0;
  for (std::size_t i = 0; i < mag_.size(); ++i) {
    if (mag_[i] == 0) {
      bits += 32;
      continue;
    }
    std::uint32_t limb = mag_[i];
    while ((limb & 1u) == 0) {
      ++bits;
      limb >>= 1;
    }
    break;
  }
  return bits;
}

std::int64_t BigInt::bit_length() const {
  if (sign_ == 0) return 0;
  std::int64_t bits = static_cast<std::int64_t>(mag_.size() - 1) * 32;
  std::uint32_t top = mag_.back();
  while (top != 0) {
    ++bits;
    top >>= 1;
  }
  return bits;
}

double BigInt::to_double() const {  // powerlint: allow(float-in-exact) -- report boundary
  if (sign_ == 0) return 0.0;
  // Take the top <= 64 bits exactly, then scale; precise enough for
  // reporting (the comparison path never uses doubles).
  const std::int64_t bits = bit_length();
  const std::int64_t drop = bits > 64 ? bits - 64 : 0;
  const BigInt top = shifted_right(drop);
  std::uint64_t mag = 0;
  for (std::size_t i = top.mag_.size(); i-- > 0;) {
    mag = (mag << 32) | top.mag_[i];
  }
  // powerlint: allow(float-in-exact) -- top 64 bits fit a double mantissa path exactly enough for reporting
  return sign_ * std::ldexp(static_cast<double>(mag),
                            static_cast<int>(drop));
}

Dyadic::Dyadic(BigInt mant, std::int64_t exp2)
    : mant_(std::move(mant)), exp2_(exp2) {
  normalize();
}

void Dyadic::normalize() {
  if (mant_.is_zero()) {
    exp2_ = 0;
    return;
  }
  const std::int64_t tz = mant_.trailing_zero_bits();
  if (tz > 0) {
    mant_ = mant_.shifted_right(tz);
    exp2_ += tz;
  }
}

Dyadic Dyadic::from_double(double value) {  // powerlint: allow(float-in-exact) -- ingest boundary
  if (!std::isfinite(value)) {
    throw std::invalid_argument("Dyadic::from_double: non-finite value");
  }
  if (value == 0.0) return Dyadic();  // powerlint: allow(float-in-exact) -- exact zero test on the ingested IEEE value
  int exp = 0;
  // powerlint: allow(float-in-exact) -- frexp decomposition is exact; |frac| in [0.5, 1)
  const double frac = std::frexp(value, &exp);
  // frac * 2^53 is an odd-or-even integer <= 2^53, exactly representable.
  const long long mant = static_cast<long long>(std::ldexp(frac, 53));
  return Dyadic(BigInt(mant), static_cast<std::int64_t>(exp) - 53);
}

Dyadic Dyadic::from_int(long long value) { return Dyadic(BigInt(value), 0); }

Dyadic Dyadic::operator+(const Dyadic& o) const {
  if (is_zero()) return o;
  if (o.is_zero()) return *this;
  // Align to the smaller exponent; shifting left is exact.
  if (exp2_ <= o.exp2_) {
    return Dyadic(mant_ + o.mant_.shifted_left(o.exp2_ - exp2_), exp2_);
  }
  return Dyadic(mant_.shifted_left(exp2_ - o.exp2_) + o.mant_, o.exp2_);
}

Dyadic Dyadic::operator-() const {
  Dyadic out = *this;
  out.mant_ = -out.mant_;
  return out;
}

Dyadic Dyadic::operator-(const Dyadic& o) const { return *this + (-o); }

Dyadic Dyadic::operator*(const Dyadic& o) const {
  return Dyadic(mant_ * o.mant_, exp2_ + o.exp2_);
}

int Dyadic::compare(const Dyadic& o) const {
  const int sa = sign();
  const int sb = o.sign();
  if (sa != sb) return sa < sb ? -1 : 1;
  if (sa == 0) return 0;
  return (*this - o).sign();
}

Dyadic Dyadic::abs() const { return sign() < 0 ? -*this : *this; }

double Dyadic::to_double() const {  // powerlint: allow(float-in-exact) -- report boundary
  if (is_zero()) return 0.0;
  // Reduce the mantissa to <= 64 bits first so a huge mantissa paired
  // with a very negative exponent cannot overflow on the way through.
  const std::int64_t bits = mant_.bit_length();
  const std::int64_t drop = bits > 64 ? bits - 64 : 0;
  // powerlint: allow(float-in-exact) -- report boundary continuation
  const double top = mant_.shifted_right(drop).to_double();
  const std::int64_t e =
      std::clamp<std::int64_t>(drop + exp2_, -100000, 100000);
  return std::ldexp(top, static_cast<int>(e));
}

void ExactAccumulator::clear() {
  std::fill(limb_ + lo_, limb_ + hi_, 0);
  lo_ = hi_ = 0;
  neg_ = false;
}

void ExactAccumulator::add_limbs(const std::uint64_t* w, int n, int at,
                                 bool negative) {
  while (n > 0 && w[n - 1] == 0) --n;
  while (n > 0 && w[0] == 0) {
    ++w;
    --n;
    ++at;
  }
  if (n == 0) return;
  if (at < 0 || at + n > kLimbs) {
    throw std::out_of_range("ExactAccumulator: term outside the register");
  }
  if (lo_ >= hi_) {
    std::copy(w, w + n, limb_ + at);
    lo_ = at;
    hi_ = at + n;
    neg_ = negative;
    return;
  }
  lo_ = std::min(lo_, at);
  if (negative == neg_) {
    // Same sign: add magnitudes; a carry past the top is an overflow.
    u128 carry = 0;
    int k = at;
    for (int i = 0; i < n; ++i, ++k) {
      const u128 sum = static_cast<u128>(limb_[k]) + w[i] + carry;
      limb_[k] = static_cast<std::uint64_t>(sum);
      carry = sum >> 64;
    }
    for (; carry != 0; ++k) {
      if (k == kLimbs) {
        throw std::overflow_error("ExactAccumulator: sum overflows");
      }
      carry = ++limb_[k] == 0;
    }
    hi_ = std::max(hi_, k);
    // A carry can leave the lowest limbs zero (2^63 + 2^63).
    while (limb_[lo_] == 0) ++lo_;
    return;
  }
  // Opposite signs: subtract magnitudes. A borrow out of the top means
  // |term| > |sum|: the limbs then hold the two's complement of the new
  // magnitude, so negate them and flip the sign.
  const int top = std::max(hi_, at + n);
  std::uint64_t borrow = 0;
  for (int k = at; k < top; ++k) {
    const std::uint64_t sub = k - at < n ? w[k - at] : 0;
    if (sub == 0 && borrow == 0) {
      if (k >= at + n) break;
      continue;
    }
    const u128 diff = static_cast<u128>(limb_[k]) - sub - borrow;
    limb_[k] = static_cast<std::uint64_t>(diff);
    borrow = static_cast<std::uint64_t>(diff >> 64) & 1;
  }
  if (borrow != 0) {
    std::uint64_t carry = 1;
    for (int k = lo_; k < top; ++k) {
      limb_[k] = ~limb_[k] + carry;
      carry = carry != 0 && limb_[k] == 0;
    }
    neg_ = !neg_;
  }
  hi_ = top;
  while (hi_ > lo_ && limb_[hi_ - 1] == 0) --hi_;
  while (lo_ < hi_ && limb_[lo_] == 0) ++lo_;
  if (lo_ >= hi_) {
    lo_ = hi_ = 0;
    neg_ = false;
  }
}

void ExactAccumulator::add_word(u128 v, std::int64_t bit, bool negative) {
  if (v == 0) return;
  if (bit < 0 || bit >= 64 * std::int64_t{kLimbs}) {
    throw std::out_of_range("ExactAccumulator: term outside the register");
  }
  const unsigned sh = static_cast<unsigned>(bit % 64);
  const auto lo = static_cast<std::uint64_t>(v);
  const auto hi = static_cast<std::uint64_t>(v >> 64);
  const std::uint64_t w[3] = {lo << sh,
                              sh == 0 ? hi : (hi << sh) | (lo >> (64 - sh)),
                              sh == 0 ? 0 : hi >> (64 - sh)};
  add_limbs(w, 3, static_cast<int>(bit / 64), negative);
}

// powerlint: allow(float-in-exact) -- ingest boundary; decomposed bitwise, no FP arithmetic
void ExactAccumulator::add(double v) {
  const Parts p = decompose(v);
  add_word(p.mant, p.exp - kLsbExp, p.neg);
}

void ExactAccumulator::add(const Dyadic& v) {
  // Four 32-bit mantissa limbs at a time.
  const std::vector<std::uint32_t>& mag = v.mant_.mag_;
  for (std::size_t k = 0; k < mag.size(); k += 4) {
    u128 word = 0;
    for (std::size_t t = std::min<std::size_t>(mag.size() - k, 4); t-- > 0;) {
      word = word << 32 | mag[k + t];
    }
    add_word(word, v.exp2_ - kLsbExp + 32 * static_cast<std::int64_t>(k),
             v.sign() < 0);
  }
}

// powerlint: allow(float-in-exact) -- ingest boundary; decomposed bitwise, no FP arithmetic
void ExactAccumulator::add_product(double a, double b) {
  const Parts pa = decompose(a);
  const Parts pb = decompose(b);
  add_word(static_cast<u128>(pa.mant) * pb.mant,
           std::int64_t{pa.exp} + pb.exp - kLsbExp, pa.neg != pb.neg);
}

// powerlint: allow(float-in-exact) -- ingest boundary; decomposed bitwise, no FP arithmetic
void ExactAccumulator::add_scaled(const ExactAccumulator& s, double f) {
  if (&s == this) {
    const ExactAccumulator copy = s;
    add_scaled(copy, f);
    return;
  }
  const Parts pf = decompose(f);
  // Limb k of s weighs 2^(64k + kLsbExp); times mant * 2^exp it lands on
  // bit 64k + exp of this register.
  for (int k = s.lo_; k < s.hi_; ++k) {
    add_word(static_cast<u128>(s.limb_[k]) * pf.mant,
             64 * std::int64_t{k} + pf.exp, s.neg_ != pf.neg);
  }
}

Dyadic ExactAccumulator::to_dyadic() const {
  if (lo_ >= hi_) return Dyadic();
  // Strip the trailing zero bits here so the Dyadic arrives normalized.
  const int tz = std::countr_zero(limb_[lo_]);
  BigInt mant;
  mant.sign_ = neg_ ? -1 : 1;
  mant.mag_.reserve(2 * static_cast<std::size_t>(hi_ - lo_));
  for (int k = lo_; k < hi_; ++k) {
    std::uint64_t v = limb_[k] >> tz;
    if (tz != 0 && k + 1 < hi_) v |= limb_[k + 1] << (64 - tz);
    mant.mag_.push_back(static_cast<std::uint32_t>(v));
    mant.mag_.push_back(static_cast<std::uint32_t>(v >> 32));
  }
  mant.trim();
  return Dyadic(std::move(mant),
                64 * std::int64_t{lo_} + tz + kLsbExp);
}

}  // namespace powerlim::check
