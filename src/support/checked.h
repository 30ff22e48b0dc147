// NumericOverflow and the checked int64 helpers: what remains of
// overflow checking now that every solver recurrence picks its width up
// front by the integer-range rule (support/int_range.h). NumericOverflow
// is how an int64 boundary fails loudly instead of wrapping: Rational
// (support/rational.cpp) for a value beyond int64, lambda_costs
// (core/critical.cpp, behind critical_subgraph and arc_slacks) and
// bellman_ford_all's potentials when they do not narrow, and the
// lambda-probe past 128 bits. cycle_weight/cycle_transit
// (core/result.cpp) sum with checked_add; checked_sub and checked_mul
// complete the set. The checks compile to a flags test via
// __builtin_*_overflow.
#ifndef MCR_SUPPORT_CHECKED_H
#define MCR_SUPPORT_CHECKED_H

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

}  // namespace mcr

#endif  // MCR_SUPPORT_CHECKED_H
