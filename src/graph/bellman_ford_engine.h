// The Bellman-Ford engine behind graph/bellman_ford.h, templated on the
// cost type. Internal header: besides bellman_ford.cpp, only the
// lambda-probe (core/critical.cpp) runs it directly, at the width its
// transformed costs call for.
#ifndef MCR_GRAPH_BELLMAN_FORD_ENGINE_H
#define MCR_GRAPH_BELLMAN_FORD_ENGINE_H

#include <algorithm>
#include <atomic>
#include <limits>
#include <stdexcept>
#include <type_traits>
#include <vector>

#include "graph/arc_tiles.h"
#include "graph/bellman_ford.h"
#include "graph/graph.h"
#include "support/int128.h"
#include "support/op_counters.h"

namespace mcr::detail {

/// Follows parent arcs from `start` to locate and return one cycle in
/// the parent forest. `parent[v]` is the arc that last relaxed v.
inline std::vector<ArcId> extract_cycle(const Graph& g, const std::vector<ArcId>& parent,
                                        NodeId start) {
  const std::size_t n = static_cast<std::size_t>(g.num_nodes());
  // Walk n steps to guarantee we are standing on the cycle itself.
  NodeId v = start;
  for (std::size_t i = 0; i < n; ++i) {
    const ArcId pa = parent[static_cast<std::size_t>(v)];
    v = g.src(pa);
  }
  // Collect arcs around the cycle.
  std::vector<ArcId> rev;
  NodeId u = v;
  do {
    const ArcId pa = parent[static_cast<std::size_t>(u)];
    rev.push_back(pa);
    u = g.src(pa);
  } while (u != v);
  std::reverse(rev.begin(), rev.end());
  return rev;
}

/// A value no real relaxation candidate reaches: the fold identity for
/// the per-node min. The paired position tie-break makes the sentinel
/// lose even a value tie, so exact headroom does not matter.
template <typename Cost>
Cost fold_identity() {
  if constexpr (std::is_same_v<Cost, double>) {
    return std::numeric_limits<double>::infinity();
  } else if constexpr (std::is_same_v<Cost, std::int64_t>) {
    return std::numeric_limits<std::int64_t>::max();
  } else {
    return static_cast<Cost>(static_cast<int128>(1) << 126);
  }
}

/// Shared Bellman-Ford core over any arithmetic cost type. `Cost` may be
/// wider than the input cost type (the int128 promotion path); the
/// caller picks it so that no sum wraps.
///
/// Every pass is a snapshot sweep over the in-arc CSR, run through the
/// tiled engine (graph/arc_tiles.h): node v's new distance is the min
/// over its predecessors of snapshot[u] + cost, ties broken by CSR
/// position (= ascending arc id). The untiled case is the same engine
/// with a single tile, so results are bit-identical for every tile
/// size and thread count.
template <typename Cost, typename CostIn>
BellmanFordResultOf<Cost> run_bellman_ford(const Graph& g, std::span<const CostIn> cost,
                                           OpCounters* counters, const TileExec& tiles) {
  if (cost.size() != static_cast<std::size_t>(g.num_arcs())) {
    throw std::invalid_argument("bellman_ford: cost array size mismatch");
  }
  const NodeId n = g.num_nodes();
  const std::size_t un = static_cast<std::size_t>(n);
  BellmanFordResultOf<Cost> out;
  out.dist.assign(un, Cost{0});
  std::vector<Cost> snapshot(un, Cost{0});
  std::vector<ArcId> parent(un, kInvalidArc);

  const std::span<const ArcId> in_ids = g.in_arc_ids();
  TiledSweep sweep(g.in_first(), tiles);

  struct Cand {
    Cost val;
    std::int32_t pos;
    bool operator<(const Cand& o) const {
      if (val < o.val) return true;
      if (o.val < val) return false;
      return pos < o.pos;
    }
  };
  const Cand none{fold_identity<Cost>(), std::numeric_limits<std::int32_t>::max()};

  // Improvement bookkeeping shared across tiles: both folds are
  // order-free (sum; max), so the totals are schedule-independent.
  std::atomic<std::uint64_t> relaxations{0};
  std::atomic<NodeId> improved_node{kInvalidNode};

  NodeId relaxed_node = kInvalidNode;
  for (NodeId pass = 0; pass <= n; ++pass) {
    snapshot = out.dist;
    improved_node.store(kInvalidNode, std::memory_order_relaxed);
    sweep.run(
        none,
        [&](std::int32_t p) {
          const ArcId a = in_ids[static_cast<std::size_t>(p)];
          return Cand{snapshot[static_cast<std::size_t>(g.src(a))] +
                          Cost(cost[static_cast<std::size_t>(a)]),
                      p};
        },
        [&](NodeId v, const Cand& best) {
          if (best.pos == std::numeric_limits<std::int32_t>::max()) return;
          if (best.val < snapshot[static_cast<std::size_t>(v)]) {
            out.dist[static_cast<std::size_t>(v)] = best.val;
            parent[static_cast<std::size_t>(v)] =
                in_ids[static_cast<std::size_t>(best.pos)];
            relaxations.fetch_add(1, std::memory_order_relaxed);
            atomic_store_max(improved_node, v);
          }
        });
    if (counters != nullptr) {
      counters->arc_scans += static_cast<std::uint64_t>(sweep.positions());
    }
    relaxed_node = improved_node.load(std::memory_order_relaxed);
    if (relaxed_node == kInvalidNode) break;  // converged early
  }
  if (counters != nullptr) {
    counters->relaxations += relaxations.load(std::memory_order_relaxed);
  }

  if (relaxed_node != kInvalidNode) {
    out.has_negative_cycle = true;
    out.cycle = extract_cycle(g, parent, relaxed_node);
    out.dist.clear();
  }
  return out;
}

}  // namespace mcr::detail

#endif  // MCR_GRAPH_BELLMAN_FORD_ENGINE_H
