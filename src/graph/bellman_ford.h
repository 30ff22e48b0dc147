// Bellman-Ford shortest paths with negative-cycle detection and
// extraction.
//
// Lawler's algorithm probes "does G_lambda contain a negative cycle?"
// once per binary-search step; callers pass the lambda-transformed arc
// costs explicitly (cost'(e) = w(e)*den - num*t(e)), keeping this module
// a pure integer-cost routine. The width of the distance sums is picked
// once, up front, by the integer-range rule (support/int_range.h): when
// (n+1) * max|cost| could leave int64 (adversarial weights, not the
// paper's <= 10^4 regime) the recurrence runs in 128-bit arithmetic
// instead, counted in OpCounters::numeric_promotions.
#ifndef MCR_GRAPH_BELLMAN_FORD_H
#define MCR_GRAPH_BELLMAN_FORD_H

#include <cstdint>
#include <span>
#include <vector>

#include "graph/arc_tiles.h"
#include "graph/graph.h"
#include "support/op_counters.h"

namespace mcr {

/// Bellman-Ford's answer, with potentials of type Dist.
template <typename Dist>
struct BellmanFordResultOf {
  bool has_negative_cycle = false;
  /// When a negative cycle exists: its arcs in traversal order
  /// (dst of cycle[i] == src of cycle[i+1], cyclically).
  std::vector<ArcId> cycle;
  /// When no negative cycle: dist[v] = shortest distance from the
  /// virtual super-source (all nodes start at 0), i.e. a feasible
  /// potential: dist[dst] <= dist[src] + cost for every arc.
  std::vector<Dist> dist;
};

using BellmanFordResult = BellmanFordResultOf<std::int64_t>;
using BellmanFordRealResult = BellmanFordResultOf<double>;

/// Runs Bellman-Ford over g with per-arc costs `cost` (size == num_arcs),
/// from a virtual super-source connected to every node with cost 0.
/// Detects any negative cycle anywhere in the graph. O(nm) worst case
/// with early exit when a pass makes no improvement.
///
/// Each pass is a snapshot ("Jacobi") sweep over the in-arc CSR: every
/// node folds the minimum over its predecessors' previous-pass
/// distances, ties broken by CSR position. That makes the result — the
/// verdict, the witness cycle, the potentials, and the op counts —
/// bit-identical for every `tiles` configuration (any tile size, any
/// thread count, including the default untiled single-tile sweep).
[[nodiscard]] BellmanFordResult bellman_ford_all(const Graph& g,
                                                 std::span<const std::int64_t> cost,
                                                 OpCounters* counters = nullptr,
                                                 const TileExec& tiles = {});

/// Floating-point variant for the binary-search solvers (Lawler, OA1),
/// whose probes use real-valued lambda-transformed costs. Cycles found
/// are exact witnesses (their true integer mean is computed by the
/// caller); only the probe threshold is approximate.
[[nodiscard]] BellmanFordRealResult bellman_ford_all_real(const Graph& g,
                                                          std::span<const double> cost,
                                                          OpCounters* counters = nullptr,
                                                          const TileExec& tiles = {});

}  // namespace mcr

#endif  // MCR_GRAPH_BELLMAN_FORD_H
