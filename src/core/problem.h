// Problem statements and solver configuration.
//
// The library solves, over a directed graph G (§1 of the paper):
//   * MCMP — the minimum cycle mean  λ* = min_C w(C)/|C|
//   * MCRP — the minimum cycle ratio ρ* = min_C w(C)/t(C), t(C) > 0
// and their maximum variants by weight negation (see core/driver.h).
//
// MCMP is the special case of MCRP with t(e) = 1 on every arc; mean
// solvers simply ignore the transit field of Graph.
#ifndef MCR_CORE_PROBLEM_H
#define MCR_CORE_PROBLEM_H

#include <algorithm>
#include <cstdint>

#include "graph/graph.h"
#include "support/int128.h"

namespace mcr {

/// Which quantity a solver optimizes.
enum class ProblemKind {
  kCycleMean,   // w(C)/|C|
  kCycleRatio,  // w(C)/t(C)
};

/// The transit arc a contributes to kind's objective: the mean problem
/// is the ratio problem with unit transits.
[[nodiscard]] inline std::int64_t arc_transit(const Graph& g, ProblemKind kind, ArcId a) {
  return kind == ProblemKind::kCycleMean ? 1 : g.transit(a);
}

/// max |w(e)| over g's arcs (0 without arcs), the factor every width
/// bound (support/int_range.h) starts from; exact even for INT64_MIN.
[[nodiscard]] inline int128 max_abs_weight(const Graph& g) {
  return std::max(-static_cast<int128>(g.min_weight()), static_cast<int128>(g.max_weight()));
}

/// Tuning knobs shared by all solvers. Exact solvers ignore epsilon.
struct SolverConfig {
  /// Convergence precision for the iterative/approximate algorithms
  /// (Howard's improvement threshold, Lawler's binary-search interval,
  /// OA1's scaling cutoff). All of them still return an exact rational:
  /// the mean/ratio of a concrete extracted cycle.
  double epsilon = 1e-9;
};

/// Validates that a ratio instance is well-posed: all transit times are
/// non-negative and no cycle has total transit 0 (i.e. the subgraph of
/// zero-transit arcs is acyclic). Throws std::invalid_argument otherwise.
void validate_ratio_instance(const Graph& g);

}  // namespace mcr

#endif  // MCR_CORE_PROBLEM_H
