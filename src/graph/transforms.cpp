#include "graph/transforms.h"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "support/checked.h"

namespace mcr {

namespace {

Graph rebuild(const Graph& g, std::int64_t factor, bool unit_transit, bool reversed) {
  std::vector<ArcSpec> arcs;
  arcs.reserve(static_cast<std::size_t>(g.num_arcs()));
  for (ArcId a = 0; a < g.num_arcs(); ++a) {
    ArcSpec s;
    s.src = reversed ? g.dst(a) : g.src(a);
    s.dst = reversed ? g.src(a) : g.dst(a);
    s.weight = checked_mul(g.weight(a), factor);
    s.transit = unit_transit ? 1 : g.transit(a);
    arcs.push_back(s);
  }
  return Graph(g.num_nodes(), arcs);
}

}  // namespace

Graph negate_weights(const Graph& g) {
  if (g.min_weight() == std::numeric_limits<std::int64_t>::min()) {
    throw std::invalid_argument("negate_weights: weight " + std::to_string(g.min_weight()) +
                                " has no int64 negation");
  }
  return rebuild(g, -1, false, false);
}

Graph with_unit_transit(const Graph& g) { return rebuild(g, 1, true, false); }

Graph scale_weights(const Graph& g, std::int64_t factor) {
  return rebuild(g, factor, false, false);
}

Graph reverse(const Graph& g) { return rebuild(g, 1, false, true); }

SimplifiedGraph simplify_parallel_arcs(const Graph& g, bool ratio) {
  // Bucket parallel arcs per (src, dst) by scanning each node's out-arcs
  // grouped by destination.
  std::vector<ArcId> keep;
  keep.reserve(static_cast<std::size_t>(g.num_arcs()));
  std::vector<std::vector<ArcId>> by_dst(static_cast<std::size_t>(g.num_nodes()));
  std::vector<NodeId> touched;
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    touched.clear();
    for (const ArcId a : g.out_arcs(u)) {
      auto& bucket = by_dst[static_cast<std::size_t>(g.dst(a))];
      if (bucket.empty()) touched.push_back(g.dst(a));
      bucket.push_back(a);
    }
    for (const NodeId v : touched) {
      auto& bucket = by_dst[static_cast<std::size_t>(v)];
      if (bucket.size() == 1) {
        keep.push_back(bucket[0]);
      } else if (!ratio) {
        ArcId best = bucket[0];
        for (const ArcId a : bucket) {
          if (g.weight(a) < g.weight(best)) best = a;
        }
        keep.push_back(best);
      } else {
        // Pareto frontier for (minimize weight, maximize transit): sort
        // by weight ascending (transit descending on ties) and keep
        // arcs whose transit strictly exceeds all previous.
        std::sort(bucket.begin(), bucket.end(), [&](ArcId a, ArcId b) {
          if (g.weight(a) != g.weight(b)) return g.weight(a) < g.weight(b);
          return g.transit(a) > g.transit(b);
        });
        std::int64_t best_transit = std::numeric_limits<std::int64_t>::min();
        for (const ArcId a : bucket) {
          if (g.transit(a) > best_transit) {
            keep.push_back(a);
            best_transit = g.transit(a);
          }
        }
      }
      bucket.clear();
    }
  }
  std::sort(keep.begin(), keep.end());  // deterministic arc order
  SimplifiedGraph out{Graph(0, {}), std::move(keep)};
  std::vector<ArcSpec> specs;
  specs.reserve(out.to_parent_arc.size());
  for (const ArcId a : out.to_parent_arc) {
    specs.push_back(ArcSpec{g.src(a), g.dst(a), g.weight(a), g.transit(a)});
  }
  out.graph = Graph(g.num_nodes(), specs);
  return out;
}

}  // namespace mcr
