#include "support/int128.h"
#include "support/rational.h"

#include <cassert>
#include <numeric>
#include <ostream>
#include <stdexcept>
#include <utility>

#include "support/checked.h"

namespace mcr {

namespace {

using i128 = int128;

std::int64_t checked_narrow(i128 v) {
  if (v > INT64_MAX || v < INT64_MIN) {
    throw std::overflow_error("mcr::Rational: value exceeds 64-bit range");
  }
  return static_cast<std::int64_t>(v);
}

}  // namespace

Rational::Rational(std::int64_t n, std::int64_t d) {
  if (d == 0) throw std::invalid_argument("mcr::Rational: zero denominator");
  if (d < 0) {
    // INT64_MIN would overflow on negation; no sane cycle has that many arcs.
    if (d == INT64_MIN || n == INT64_MIN) {
      throw std::overflow_error("mcr::Rational: denominator overflow");
    }
    n = -n;
    d = -d;
  }
  const std::int64_t g = std::gcd(n, d);
  num_ = g == 0 ? 0 : n / g;
  den_ = g == 0 ? 1 : d / g;
  if (num_ == 0) den_ = 1;
}

Rational Rational::from_int128(int128 n, int128 d) {
  const WideRational w(n, d);
  if (w.num > INT64_MAX || w.num < INT64_MIN || w.den > INT64_MAX) {
    throw NumericOverflow("Rational::from_int128 (reduced value exceeds int64)");
  }
  Rational r;
  r.num_ = static_cast<std::int64_t>(w.num);
  r.den_ = static_cast<std::int64_t>(w.den);
  return r;
}

double Rational::to_double() const {
  return static_cast<double>(num_) / static_cast<double>(den_);
}

std::string Rational::to_string() const {
  if (den_ == 1) return std::to_string(num_);
  return std::to_string(num_) + "/" + std::to_string(den_);
}

Rational Rational::operator-() const {
  Rational r;
  r.num_ = checked_narrow(-static_cast<i128>(num_));
  r.den_ = den_;
  return r;
}

Rational Rational::operator+(const Rational& o) const {
  // Reduce in 128 bits before narrowing.
  const WideRational sum(static_cast<i128>(num_) * o.den_ + static_cast<i128>(o.num_) * den_,
                         static_cast<i128>(den_) * o.den_);
  return Rational(checked_narrow(sum.num), checked_narrow(sum.den));
}

Rational Rational::operator-(const Rational& o) const { return *this + (-o); }

Rational Rational::operator*(const Rational& o) const {
  // Cross-reduce first to keep intermediates small.
  const std::int64_t g1 = std::gcd(num_, o.den_);
  const std::int64_t g2 = std::gcd(o.num_, den_);
  const i128 n = static_cast<i128>(num_ / (g1 ? g1 : 1)) * (o.num_ / (g2 ? g2 : 1));
  const i128 d = static_cast<i128>(den_ / (g2 ? g2 : 1)) * (o.den_ / (g1 ? g1 : 1));
  return Rational(checked_narrow(n), checked_narrow(d));
}

Rational Rational::operator/(const Rational& o) const {
  if (o.num_ == 0) throw std::invalid_argument("mcr::Rational: division by zero");
  Rational inv;
  if (o.num_ < 0) {
    inv = Rational(-o.den_, -o.num_);
  } else {
    inv = Rational(o.den_, o.num_);
  }
  return *this * inv;
}

std::strong_ordering operator<=>(const Rational& a, const Rational& b) {
  const int128 lhs = static_cast<int128>(a.num_) * b.den_;
  const int128 rhs = static_cast<int128>(b.num_) * a.den_;
  if (lhs < rhs) return std::strong_ordering::less;
  if (lhs > rhs) return std::strong_ordering::greater;
  return std::strong_ordering::equal;
}

std::ostream& operator<<(std::ostream& os, const Rational& r) {
  return os << r.to_string();
}

std::strong_ordering compare_fraction(std::int64_t a, std::int64_t b, const Rational& r) {
  assert(b > 0);
  const int128 lhs = static_cast<int128>(a) * r.den();
  const int128 rhs = static_cast<int128>(r.num()) * b;
  if (lhs < rhs) return std::strong_ordering::less;
  if (lhs > rhs) return std::strong_ordering::greater;
  return std::strong_ordering::equal;
}

WideRational::WideRational(int128 n, int128 d) {
  if (d == 0) throw std::invalid_argument("mcr::Rational: zero denominator");
  if (d < 0) {
    n = -n;
    d = -d;
  }
  i128 a = n < 0 ? -n : n;
  i128 b = d;
  while (b != 0) {
    const i128 t = a % b;
    a = b;
    b = t;
  }
  const i128 g = a == 0 ? d : a;
  num = n / g;
  den = d / g;
}

bool operator<(const WideRational& a, const WideRational& b) {
  // Compare the continued fractions: integer parts first, then, on a
  // tie, the fractional parts x < y as 1/y < 1/x. The denominators
  // shrink like Euclid's, and no product leaves 128 bits.
  const auto floor_div = [](i128 n, i128 d) { return n / d - (n % d < 0 ? 1 : 0); };
  i128 an = a.num, ad = a.den, bn = b.num, bd = b.den;
  for (;;) {
    const i128 qa = floor_div(an, ad);
    const i128 qb = floor_div(bn, bd);
    if (qa != qb) return qa < qb;
    an -= qa * ad;
    bn -= qb * bd;
    if (an == 0 || bn == 0) return an == 0 && bn != 0;
    std::swap(an, bd);
    std::swap(ad, bn);
  }
}

}  // namespace mcr
