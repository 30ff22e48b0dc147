// Whole-graph transforms.
//
// Maximum cycle mean/ratio problems reduce to minimum ones by negating
// weights (max_C w/t = -min_C (-w)/t); clock-period and iteration-bound
// applications in examples/ use that reduction.
#ifndef MCR_GRAPH_TRANSFORMS_H
#define MCR_GRAPH_TRANSFORMS_H

#include <vector>

#include "graph/graph.h"

namespace mcr {

/// A copy of g with every weight negated. Throws std::invalid_argument
/// when a weight is INT64_MIN, which has no int64 negation.
[[nodiscard]] Graph negate_weights(const Graph& g);

/// A copy of g with every transit time set to 1 (turns a ratio instance
/// into the corresponding mean instance).
[[nodiscard]] Graph with_unit_transit(const Graph& g);

/// A copy of g with every weight multiplied by `factor`; throws
/// NumericOverflow when a product leaves int64.
[[nodiscard]] Graph scale_weights(const Graph& g, std::int64_t factor);

/// A copy of g with all arcs reversed (weights/transits preserved).
[[nodiscard]] Graph reverse(const Graph& g);

/// A simplified copy with a parent-arc mapping.
struct SimplifiedGraph {
  Graph graph;
  /// to_parent_arc[new arc id] = arc id in the input graph.
  std::vector<ArcId> to_parent_arc;
};

/// Removes parallel arcs that can never appear on an optimum cycle:
/// for the mean problem only the minimum-weight arc of each (u, v)
/// bundle survives; for the ratio problem the Pareto frontier survives
/// (an arc is dominated when another parallel arc has weight <= and
/// transit >=, since a minimum-ratio cycle prefers lower weight and
/// higher transit). A standard preprocessing step: SPRAND and circuit
/// netlists both produce parallel arcs, and every solver's work scales
/// with m. Pass ratio = false for mean problems (transit ignored).
[[nodiscard]] SimplifiedGraph simplify_parallel_arcs(const Graph& g, bool ratio = false);

}  // namespace mcr

#endif  // MCR_GRAPH_TRANSFORMS_H
