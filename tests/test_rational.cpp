#include "support/rational.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <sstream>
#include <stdexcept>

#include "support/checked.h"

namespace mcr {
namespace {

TEST(Rational, DefaultIsZero) {
  Rational r;
  EXPECT_EQ(r.num(), 0);
  EXPECT_EQ(r.den(), 1);
  EXPECT_TRUE(r.is_integer());
}

TEST(Rational, IntegerConversionIsImplicit) {
  Rational r = 7;
  EXPECT_EQ(r.num(), 7);
  EXPECT_EQ(r.den(), 1);
}

TEST(Rational, ReducesToLowestTerms) {
  Rational r(6, 4);
  EXPECT_EQ(r.num(), 3);
  EXPECT_EQ(r.den(), 2);
}

TEST(Rational, NormalizesSignOntoNumerator) {
  Rational r(3, -6);
  EXPECT_EQ(r.num(), -1);
  EXPECT_EQ(r.den(), 2);
  Rational q(-3, -6);
  EXPECT_EQ(q.num(), 1);
  EXPECT_EQ(q.den(), 2);
}

TEST(Rational, ZeroNumeratorNormalizesDenominator) {
  Rational r(0, 17);
  EXPECT_EQ(r.num(), 0);
  EXPECT_EQ(r.den(), 1);
}

TEST(Rational, ZeroDenominatorThrows) {
  EXPECT_THROW(Rational(1, 0), std::invalid_argument);
}

TEST(Rational, EqualityIsValueEquality) {
  EXPECT_EQ(Rational(1, 2), Rational(2, 4));
  EXPECT_NE(Rational(1, 2), Rational(1, 3));
}

TEST(Rational, TotalOrder) {
  EXPECT_LT(Rational(1, 3), Rational(1, 2));
  EXPECT_LT(Rational(-1, 2), Rational(-1, 3));
  EXPECT_GT(Rational(5, 2), Rational(2));
  EXPECT_LE(Rational(3, 6), Rational(1, 2));
  EXPECT_GE(Rational(0), Rational(-1, 1000000));
}

TEST(Rational, OrderingAvoidsOverflow) {
  // Cross multiplication of near-max values must not wrap.
  const Rational big(INT64_MAX / 2, 3);
  const Rational small(1, INT64_MAX / 2);
  EXPECT_LT(small, big);
  EXPECT_GT(big, small);
}

TEST(Rational, Addition) {
  EXPECT_EQ(Rational(1, 2) + Rational(1, 3), Rational(5, 6));
  EXPECT_EQ(Rational(1, 2) + Rational(-1, 2), Rational(0));
  EXPECT_EQ(Rational(2, 4) + Rational(2, 4), Rational(1));
}

TEST(Rational, Subtraction) {
  EXPECT_EQ(Rational(1, 2) - Rational(1, 3), Rational(1, 6));
  EXPECT_EQ(Rational(1, 3) - Rational(1, 2), Rational(-1, 6));
}

TEST(Rational, Multiplication) {
  EXPECT_EQ(Rational(2, 3) * Rational(3, 4), Rational(1, 2));
  EXPECT_EQ(Rational(-2, 3) * Rational(3, 2), Rational(-1));
}

TEST(Rational, MultiplicationCrossReducesLargeOperands) {
  // (a/b) * (b/a) = 1 even when a*b would overflow.
  const std::int64_t a = 3'037'000'499;  // ~sqrt(2^63)
  const Rational x(a, 7);
  const Rational y(7, a);
  EXPECT_EQ(x * y, Rational(1));
}

TEST(Rational, Division) {
  EXPECT_EQ(Rational(1, 2) / Rational(1, 4), Rational(2));
  EXPECT_EQ(Rational(3) / Rational(-6), Rational(-1, 2));
  EXPECT_THROW(Rational(1) / Rational(0), std::invalid_argument);
}

TEST(Rational, Negation) {
  EXPECT_EQ(-Rational(3, 7), Rational(-3, 7));
  EXPECT_EQ(-Rational(0), Rational(0));
}

TEST(Rational, CompoundAssignment) {
  Rational r(1, 2);
  r += Rational(1, 2);
  EXPECT_EQ(r, Rational(1));
  r -= Rational(1, 4);
  EXPECT_EQ(r, Rational(3, 4));
  r *= Rational(4, 3);
  EXPECT_EQ(r, Rational(1));
  r /= Rational(2);
  EXPECT_EQ(r, Rational(1, 2));
}

TEST(Rational, ToDouble) {
  EXPECT_DOUBLE_EQ(Rational(1, 2).to_double(), 0.5);
  EXPECT_DOUBLE_EQ(Rational(-7, 4).to_double(), -1.75);
}

TEST(Rational, ToStringAndStream) {
  EXPECT_EQ(Rational(5).to_string(), "5");
  EXPECT_EQ(Rational(-3, 4).to_string(), "-3/4");
  std::ostringstream os;
  os << Rational(7, 2);
  EXPECT_EQ(os.str(), "7/2");
}

TEST(Rational, AdditionOverflowThrows) {
  const Rational huge(INT64_MAX - 1, 1);
  EXPECT_THROW(huge + huge, std::overflow_error);
}

TEST(Rational, CompareFraction) {
  EXPECT_EQ(compare_fraction(1, 2, Rational(1, 2)), std::strong_ordering::equal);
  EXPECT_EQ(compare_fraction(1, 3, Rational(1, 2)), std::strong_ordering::less);
  EXPECT_EQ(compare_fraction(-1, 3, Rational(-1, 2)), std::strong_ordering::greater);
  EXPECT_EQ(compare_fraction(10, 4, Rational(5, 2)), std::strong_ordering::equal);
}

TEST(Rational, AdditionReducesIn128Bits) {
  // num*den' + num'*den exceeds 64 bits before reduction but the sum is
  // small after reduction.
  const std::int64_t d = 4'000'000'000;
  const Rational a(1, d);
  const Rational b(d - 1, d);
  EXPECT_EQ(a + b, Rational(1));
}

TEST(Rational, WideRationalReducesAndNarrows) {
  const WideRational w(int128{-6}, int128{-4});
  EXPECT_EQ(w.num, 3);
  EXPECT_EQ(w.den, 2);
  const WideRational neg(int128{3}, int128{-6});
  EXPECT_EQ(neg.num, -1);
  EXPECT_EQ(neg.den, 2);
  EXPECT_EQ(WideRational(int128{0}, int128{-7}).den, 1);
  EXPECT_THROW((void)WideRational(int128{1}, int128{0}), std::invalid_argument);
  EXPECT_EQ(WideRational(Rational(-5, 3)).to_rational(), Rational(-5, 3));
  // Beyond int64 only once narrowed: 2^64 / 3 is a fine WideRational.
  const WideRational beyond(int128{1} << 64, int128{3});
  EXPECT_THROW((void)beyond.to_rational(), NumericOverflow);
}

TEST(Rational, WideRationalOrdersExactly) {
  // (2^100 + 1) / 2^62 < 2^100 / (2^62 - 1): the cross products need
  // 163 bits, and the two values differ by about 2^-24.
  const int128 p100 = int128{1} << 100;
  const int128 p62 = int128{1} << 62;
  const WideRational a(p100 + 1, p62);
  const WideRational b(p100, p62 - 1);
  EXPECT_TRUE(a < b);
  EXPECT_FALSE(b < a);
  EXPECT_FALSE(a < a);
  EXPECT_TRUE(WideRational(-p100, p62) < WideRational(-p100 + 1, p62));
  // Agrees with Rational's order, and with its to_double, on int64 values.
  std::mt19937_64 rng(20261017);
  std::uniform_int_distribution<std::int64_t> num(-1'000'000'000'000, 1'000'000'000'000);
  std::uniform_int_distribution<std::int64_t> den(1, 1'000'000);
  for (int i = 0; i < 10'000; ++i) {
    const Rational x(num(rng) / (i % 7 + 1), den(rng));
    const Rational y = i % 5 == 0 ? x : Rational(num(rng), den(rng));
    EXPECT_EQ(WideRational(x) < WideRational(y), x < y) << x << " vs " << y;
    EXPECT_EQ(WideRational(x).to_double(), x.to_double()) << x;
  }
}

}  // namespace
}  // namespace mcr
