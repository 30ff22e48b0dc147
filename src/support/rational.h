// Exact rational arithmetic for cycle means and cycle ratios.
//
// A cycle mean is w(C)/|C| and a cycle ratio is w(C)/t(C); with 64-bit
// integer arc weights these are ratios of 64-bit integers. All solver
// results in this library are reported as Rational so that tests can
// compare answers exactly, with no epsilon tuning. Comparisons and
// arithmetic cross-multiply in __int128, so any pair of in-range
// rationals compares without overflow.
#ifndef MCR_SUPPORT_RATIONAL_H
#define MCR_SUPPORT_RATIONAL_H

#include <cstdint>
#include <compare>
#include <iosfwd>
#include <string>

#include "support/int128.h"

namespace mcr {

/// An exact rational number num/den with den > 0, kept in lowest terms.
///
/// The default value is 0/1. A Rational is a regular type: cheap to copy,
/// totally ordered, hashable via (num, den).
class Rational {
 public:
  constexpr Rational() = default;
  /// Implicit from integers: the rational value n/1.
  constexpr Rational(std::int64_t n) : num_(n), den_(1) {}  // NOLINT(google-explicit-constructor)
  /// The rational n/d. Requires d != 0; the sign is normalized onto the
  /// numerator and the fraction is reduced.
  Rational(std::int64_t n, std::int64_t d);

  /// The rational n/d from 128-bit parts: reduces in 128 bits first and
  /// throws NumericOverflow only when the *reduced* fraction still does
  /// not fit in int64. Karp's formula (algo/karp_family.h) and
  /// WideRational::to_rational build their values through this.
  [[nodiscard]] static Rational from_int128(int128 n, int128 d);

  [[nodiscard]] constexpr std::int64_t num() const { return num_; }
  [[nodiscard]] constexpr std::int64_t den() const { return den_; }

  /// Closest double; exact when representable.
  [[nodiscard]] double to_double() const;

  /// "num/den", or just "num" when den == 1.
  [[nodiscard]] std::string to_string() const;

  [[nodiscard]] bool is_integer() const { return den_ == 1; }

  Rational operator-() const;
  Rational operator+(const Rational& o) const;
  Rational operator-(const Rational& o) const;
  Rational operator*(const Rational& o) const;
  /// Requires o != 0.
  Rational operator/(const Rational& o) const;

  Rational& operator+=(const Rational& o) { return *this = *this + o; }
  Rational& operator-=(const Rational& o) { return *this = *this - o; }
  Rational& operator*=(const Rational& o) { return *this = *this * o; }
  Rational& operator/=(const Rational& o) { return *this = *this / o; }

  friend bool operator==(const Rational& a, const Rational& b) {
    return a.num_ == b.num_ && a.den_ == b.den_;
  }
  friend std::strong_ordering operator<=>(const Rational& a, const Rational& b);

 private:
  std::int64_t num_ = 0;
  std::int64_t den_ = 1;
};

std::ostream& operator<<(std::ostream& os, const Rational& r);

/// Compares the rational a/b (b > 0) against r without constructing a
/// Rational; used in solver inner loops.
[[nodiscard]] std::strong_ordering compare_fraction(std::int64_t a, std::int64_t b,
                                                    const Rational& r);

/// A rational with 128-bit parts, den > 0, in lowest terms: the exact
/// value of any cycle, also where Rational's int64 parts cannot hold it.
/// Solvers search with it and narrow only their answer (to_rational).
struct WideRational {
  int128 num = 0;
  int128 den = 1;

  WideRational() = default;
  /// n/d reduced, sign on the numerator. Requires d != 0.
  WideRational(int128 n, int128 d);
  // NOLINTNEXTLINE(google-explicit-constructor): every Rational is one.
  WideRational(const Rational& r) : num(r.num()), den(r.den()) {}

  /// Throws NumericOverflow when the value does not fit Rational.
  [[nodiscard]] Rational to_rational() const { return Rational::from_int128(num, den); }
  /// Closest double; equal to Rational::to_double() for the same value.
  [[nodiscard]] double to_double() const {
    return static_cast<double>(num) / static_cast<double>(den);
  }
  /// Exact for all values, without the 256-bit cross products.
  friend bool operator<(const WideRational& a, const WideRational& b);
};

}  // namespace mcr

#endif  // MCR_SUPPORT_RATIONAL_H
