// Breadth-first and depth-first traversals over Graph.
#ifndef MCR_GRAPH_TRAVERSAL_H
#define MCR_GRAPH_TRAVERSAL_H

#include <span>
#include <vector>

#include "graph/graph.h"

namespace mcr {

/// Nodes reachable from `source` following out-arcs (BFS order).
[[nodiscard]] std::vector<NodeId> bfs_order(const Graph& g, NodeId source);

/// Nodes that can reach `sink` following arcs forward (i.e. BFS on the
/// reverse graph). Howard's algorithm computes distances in this order.
[[nodiscard]] std::vector<NodeId> reverse_bfs_order(const Graph& g, NodeId sink);

/// reachable[v] = true iff v is reachable from source.
[[nodiscard]] std::vector<bool> reachable_from(const Graph& g, NodeId source);

/// True iff g has at least one directed cycle (including self-loops).
[[nodiscard]] bool has_cycle(const Graph& g);

/// Topological order of an acyclic graph; empty vector if g is cyclic.
[[nodiscard]] std::vector<NodeId> topological_order(const Graph& g);

/// Finds one directed cycle using only the arcs in `arc_subset`
/// (iterative colored DFS). Returns the cycle's arcs in traversal
/// order, or an empty vector if the arc subset is acyclic.
[[nodiscard]] std::vector<ArcId> find_any_cycle(const Graph& g,
                                                std::span<const ArcId> arc_subset);

/// find_any_cycle over all of g's arcs: the start cycle of the solvers
/// that descend from any cycle to the optimum.
[[nodiscard]] std::vector<ArcId> find_any_cycle(const Graph& g);

}  // namespace mcr

#endif  // MCR_GRAPH_TRAVERSAL_H
