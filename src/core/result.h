// Solver results.
#ifndef MCR_CORE_RESULT_H
#define MCR_CORE_RESULT_H

#include <span>
#include <vector>

#include "core/problem.h"
#include "graph/graph.h"
#include "support/op_counters.h"
#include "support/rational.h"

namespace mcr {

/// The answer to an MCM/MCR query.
///
/// Every solver — including the approximate ones — reports `value` as
/// the exact mean (or ratio) of the concrete `cycle` it found, so results
/// from different solvers compare exactly. For approximate solvers the
/// guarantee is that `value` is within the configured epsilon of the
/// optimum; for exact solvers it *is* the optimum (and verify() can
/// certify that).
struct CycleResult {
  /// False iff the graph has no cycle at all; all other fields are then
  /// meaningless.
  bool has_cycle = false;

  /// The optimum cycle mean lambda* (or cycle ratio rho*).
  Rational value;

  /// Arcs of one optimum cycle, in traversal order: dst(cycle[i]) ==
  /// src(cycle[i+1]) cyclically. Ids refer to the graph the query was
  /// made on (the driver maps per-SCC ids back).
  std::vector<ArcId> cycle;

  /// Representative operation counts (see support/op_counters.h).
  OpCounters counters;
};

/// Exact values and sums of a cycle given by arc ids. The value sums in
/// 128 bits, so wide_cycle_value exists for every cycle; cycle_value (and
/// cycle_mean, cycle_ratio) narrow it and, like the int64 sums, throw
/// NumericOverflow rather than wrap beyond int64.
[[nodiscard]] WideRational wide_cycle_value(const Graph& g, ProblemKind kind,
                                            std::span<const ArcId> cycle);
[[nodiscard]] inline Rational cycle_value(const Graph& g, ProblemKind kind,
                                          std::span<const ArcId> cycle) {
  return wide_cycle_value(g, kind, cycle).to_rational();
}
[[nodiscard]] inline Rational cycle_mean(const Graph& g, std::span<const ArcId> cycle) {
  return cycle_value(g, ProblemKind::kCycleMean, cycle);
}
[[nodiscard]] inline Rational cycle_ratio(const Graph& g, std::span<const ArcId> cycle) {
  return cycle_value(g, ProblemKind::kCycleRatio, cycle);
}
[[nodiscard]] std::int64_t cycle_weight(const Graph& g, const std::vector<ArcId>& cycle);
[[nodiscard]] std::int64_t cycle_transit(const Graph& g, const std::vector<ArcId>& cycle);

/// Checks that `cycle` is a well-formed cycle in g (consecutive arcs
/// chain and it closes).
[[nodiscard]] bool is_valid_cycle(const Graph& g, const std::vector<ArcId>& cycle);

}  // namespace mcr

#endif  // MCR_CORE_RESULT_H
