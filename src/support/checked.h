// Overflow-checked 64-bit arithmetic for the distance recurrences.
//
// Karp/Lawler/Bellman-Ford-style distance tables accumulate n·|w|-sized
// sums; with adversarial weights those silently wrap in plain int64 and
// the solver returns a *wrong* optimum, not a crash (the value-range
// concern Bringmann–Hansen–Krinninger and Chatterjee et al. both flag
// as the binding constraint for cycle-ratio computation). The library
// stays exact in one of two ways; solvers count their switches to int128
// in OpCounters::numeric_promotions → mcr_numeric_promotions_total:
//   * checked first: Bellman-Ford sums run on CheckedI64 and the lambda
//     transform (lambda_costs) on checked_mul/checked_sub; the first
//     overflow throws NumericOverflow and the caller repeats the work in
//     int128 (bellman_ford.cpp, and the lambda-probe in core/critical.cpp
//     behind refine_to_exact, verify_result, Megiddo's oracle and
//     witness extraction);
//   * width chosen up front: the Karp family (algo/karp_family.h) bounds
//     every table entry from n, T and max|w| before the first level and
//     runs in int128 when int64 cannot hold the bound, with no per-sum
//     check.
// Howard, YTO and KO (and their ratio variants) do neither yet: their
// recurrences run in plain int64 (docs/ROBUSTNESS.md, "Numeric
// robustness").
//
// The checks compile to a flags test via __builtin_*_overflow — no
// measurable cost next to the memory traffic of the recurrences.
#ifndef MCR_SUPPORT_CHECKED_H
#define MCR_SUPPORT_CHECKED_H

#include <compare>
#include <cstdint>
#include <stdexcept>
#include <string>

namespace mcr {

/// Thrown when a checked 64-bit operation would wrap. Callers either
/// promote to int128/rational arithmetic or surface the message — never
/// continue on the wrapped value.
class NumericOverflow : public std::overflow_error {
 public:
  explicit NumericOverflow(const char* context)
      : std::overflow_error(std::string("int64 overflow in ") + context +
                            " (re-solve promotes to 128-bit arithmetic)") {}
};

[[nodiscard]] inline std::int64_t checked_add(std::int64_t a, std::int64_t b) {
  std::int64_t r;
  if (__builtin_add_overflow(a, b, &r)) throw NumericOverflow("add");
  return r;
}

[[nodiscard]] inline std::int64_t checked_sub(std::int64_t a, std::int64_t b) {
  std::int64_t r;
  if (__builtin_sub_overflow(a, b, &r)) throw NumericOverflow("sub");
  return r;
}

[[nodiscard]] inline std::int64_t checked_mul(std::int64_t a, std::int64_t b) {
  std::int64_t r;
  if (__builtin_mul_overflow(a, b, &r)) throw NumericOverflow("mul");
  return r;
}

/// -INT64_MIN is the one negation that does not exist in int64.
[[nodiscard]] inline std::int64_t checked_neg(std::int64_t a) {
  std::int64_t r;
  if (__builtin_sub_overflow(std::int64_t{0}, a, &r)) throw NumericOverflow("neg");
  return r;
}

/// Drop-in accumulator for templated recurrences (Bellman-Ford's Cost
/// parameter, Karp's distance table): int64 semantics, but + and -
/// throw NumericOverflow instead of wrapping. Comparison and copy are
/// exactly int64.
class CheckedI64 {
 public:
  constexpr CheckedI64() = default;
  constexpr CheckedI64(std::int64_t v) : v_(v) {}  // NOLINT(google-explicit-constructor)

  [[nodiscard]] constexpr std::int64_t value() const { return v_; }

  friend CheckedI64 operator+(CheckedI64 a, CheckedI64 b) {
    return CheckedI64(checked_add(a.v_, b.v_));
  }
  friend CheckedI64 operator-(CheckedI64 a, CheckedI64 b) {
    return CheckedI64(checked_sub(a.v_, b.v_));
  }
  CheckedI64 operator-() const { return CheckedI64(checked_neg(v_)); }
  CheckedI64& operator+=(CheckedI64 o) { return *this = *this + o; }

  friend constexpr bool operator==(CheckedI64, CheckedI64) = default;
  friend constexpr std::strong_ordering operator<=>(CheckedI64 a, CheckedI64 b) {
    return a.v_ <=> b.v_;
  }

 private:
  std::int64_t v_ = 0;
};

}  // namespace mcr

#endif  // MCR_SUPPORT_CHECKED_H
