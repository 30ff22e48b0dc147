// The integer-range rule: does an int64 recurrence fit? Internal header.
//
// Every int64 recurrence bounds the values it will store before storing
// any and asks fits_int64 once, with the bound and its proof next to the
// call. Out of range, code generic over its integer type runs on int128
// (with_width: the Karp family, Bellman-Ford, the lambda-probe), and the
// rest sends the component to the exact finish (finish_exact in
// core/critical.h: Howard, KO/YTO, Megiddo); both count one
// OpCounters::numeric_promotions. The limit leaves a factor of 4 below
// INT64_MAX, so two values within a bound add without wrapping, and it
// doubles as the "unreached" sentinel of the int64 tables.
#ifndef MCR_SUPPORT_INT_RANGE_H
#define MCR_SUPPORT_INT_RANGE_H

#include <cstdint>
#include <limits>

#include "support/int128.h"
#include "support/op_counters.h"

namespace mcr {

inline constexpr std::int64_t kInt64Limit = std::numeric_limits<std::int64_t>::max() / 4;

/// True when values at most `bound` in magnitude fit the rule.
[[nodiscard]] constexpr bool fits_int64(int128 bound) { return bound < kInt64Limit; }

/// body(std::int64_t{0}) when fits_int64(bound); otherwise counts one
/// promotion (when counters is set) and returns body(int128{0}).
template <typename Body>
auto with_width(int128 bound, OpCounters* counters, const Body& body) {
  if (fits_int64(bound)) return body(std::int64_t{0});
  if (counters != nullptr) ++counters->numeric_promotions;
  return body(int128{0});
}

}  // namespace mcr

#endif  // MCR_SUPPORT_INT_RANGE_H
