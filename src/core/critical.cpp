#include "core/critical.h"

#include <algorithm>
#include <stdexcept>
#include <type_traits>

#include "core/result.h"
#include "graph/bellman_ford.h"
#include "graph/bellman_ford_engine.h"
#include "graph/scc.h"
#include "graph/traversal.h"
#include "obs/obs.h"
#include "support/checked.h"

namespace mcr {

namespace {

/// cost(e) = w(e)*den - num*t(e): overflow-checked in int64, plain in
/// int128, where |w|,|num|,|den|,|t| <= 2^63 keep |cost| < 2^127.
template <typename Cost>
std::vector<Cost> transformed_costs(const Graph& g, const Rational& value, ProblemKind kind) {
  std::vector<Cost> cost(static_cast<std::size_t>(g.num_arcs()));
  for (ArcId a = 0; a < g.num_arcs(); ++a) {
    const std::int64_t t = kind == ProblemKind::kCycleMean ? 1 : g.transit(a);
    if constexpr (std::is_same_v<Cost, std::int64_t>) {
      cost[static_cast<std::size_t>(a)] =
          checked_sub(checked_mul(g.weight(a), value.den()), checked_mul(value.num(), t));
    } else {
      cost[static_cast<std::size_t>(a)] = static_cast<int128>(g.weight(a)) * value.den() -
                                          static_cast<int128>(value.num()) * t;
    }
  }
  return cost;
}

/// Arcs with dist[v] == dist[u] + cost; the sum is taken in 128 bits so
/// an int64 pair never wraps.
template <typename Dist, typename Cost>
std::vector<ArcId> tight_arcs(const Graph& g, const std::vector<Dist>& dist,
                              const std::vector<Cost>& cost) {
  std::vector<ArcId> out;
  for (ArcId a = 0; a < g.num_arcs(); ++a) {
    if (static_cast<int128>(dist[static_cast<std::size_t>(g.src(a))]) +
            cost[static_cast<std::size_t>(a)] ==
        dist[static_cast<std::size_t>(g.dst(a))]) {
      out.push_back(a);
    }
  }
  return out;
}

template <typename Cost>
LambdaProbe probe(const Graph& g, const Rational& value, ProblemKind kind,
                  OpCounters* counters, const TileExec& tiles) {
  const std::vector<Cost> cost = transformed_costs<Cost>(g, value, kind);
  auto bf = [&] {
    if constexpr (std::is_same_v<Cost, std::int64_t>) {
      return bellman_ford_all(g, cost, counters, tiles);
    } else {
      return detail::run_bellman_ford<int128>(g, std::span<const int128>(cost), counters,
                                              tiles);
    }
  }();
  LambdaProbe out;
  out.has_negative_cycle = bf.has_negative_cycle;
  if (bf.has_negative_cycle) {
    out.cycle = std::move(bf.cycle);
  } else {
    out.critical_arcs = tight_arcs(g, bf.dist, cost);
  }
  return out;
}

}  // namespace

std::vector<std::int64_t> lambda_costs(const Graph& g, const Rational& value,
                                       ProblemKind kind) {
  return transformed_costs<std::int64_t>(g, value, kind);
}

LambdaProbe lambda_probe(const Graph& g, const Rational& value, ProblemKind kind,
                         OpCounters* counters, const TileExec& tiles) {
  try {
    return probe<std::int64_t>(g, value, kind, counters, tiles);
  } catch (const NumericOverflow&) {
    // A transformed cost or a potential left int64: the whole test
    // repeats in 128-bit costs rather than continuing on a wrapped value.
    if (counters != nullptr) ++counters->numeric_promotions;
    return probe<int128>(g, value, kind, counters, tiles);
  }
}

void refine_to_exact(const Graph& g, ProblemKind kind, Rational& value,
                     std::vector<ArcId>& cycle, OpCounters& counters,
                     const TileExec& tiles) {
  for (;;) {
    ++counters.feasibility_checks;
    obs::emit(obs::EventKind::kFeasibilityProbe, "refine.probe",
              static_cast<std::int64_t>(counters.feasibility_checks));
    LambdaProbe probe = lambda_probe(g, value, kind, &counters, tiles);
    if (!probe.has_negative_cycle) return;
    cycle = std::move(probe.cycle);
    value = cycle_value(g, kind, cycle);
  }
}

CriticalSubgraph critical_subgraph(const Graph& g, const Rational& value,
                                   ProblemKind kind) {
  const std::vector<std::int64_t> cost = lambda_costs(g, value, kind);
  BellmanFordResult bf = bellman_ford_all(g, cost);
  if (bf.has_negative_cycle) {
    throw std::invalid_argument(
        "critical_subgraph: value exceeds the optimum (negative cycle exists)");
  }
  CriticalSubgraph out;
  out.arcs = tight_arcs(g, bf.dist, cost);
  out.scaled_potential = std::move(bf.dist);
  std::vector<bool> node_critical(static_cast<std::size_t>(g.num_nodes()), false);
  for (const ArcId a : out.arcs) {
    node_critical[static_cast<std::size_t>(g.src(a))] = true;
    node_critical[static_cast<std::size_t>(g.dst(a))] = true;
  }
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (node_critical[static_cast<std::size_t>(v)]) out.nodes.push_back(v);
  }
  return out;
}

std::vector<std::int64_t> arc_slacks(const Graph& g, const Rational& value,
                                     ProblemKind kind) {
  const std::vector<std::int64_t> cost = lambda_costs(g, value, kind);
  BellmanFordResult bf = bellman_ford_all(g, cost);
  if (bf.has_negative_cycle) {
    throw std::invalid_argument("arc_slacks: value exceeds the optimum");
  }
  std::vector<std::int64_t> slack(static_cast<std::size_t>(g.num_arcs()));
  for (ArcId a = 0; a < g.num_arcs(); ++a) {
    slack[static_cast<std::size_t>(a)] =
        bf.dist[static_cast<std::size_t>(g.src(a))] + cost[static_cast<std::size_t>(a)] -
        bf.dist[static_cast<std::size_t>(g.dst(a))];
  }
  return slack;
}

std::vector<ArcId> optimal_arc_set(const Graph& g, const Rational& value,
                                   ProblemKind kind) {
  const CriticalSubgraph crit = critical_subgraph(g, value, kind);
  // Build the critical subgraph as its own Graph (nodes unchanged) and
  // decompose; arcs inside cyclic components are exactly the arcs on
  // optimum cycles.
  std::vector<ArcSpec> specs;
  specs.reserve(crit.arcs.size());
  for (const ArcId a : crit.arcs) {
    specs.push_back(ArcSpec{g.src(a), g.dst(a), 0, 0});
  }
  const Graph crit_graph(g.num_nodes(), specs);
  const SccDecomposition scc = strongly_connected_components(crit_graph);
  std::vector<ArcId> out;
  for (std::size_t i = 0; i < crit.arcs.size(); ++i) {
    const ArcId a = crit.arcs[i];
    const NodeId cu = scc.component[static_cast<std::size_t>(g.src(a))];
    const NodeId cv = scc.component[static_cast<std::size_t>(g.dst(a))];
    if (cu == cv && scc.component_is_cyclic[static_cast<std::size_t>(cu)]) {
      out.push_back(a);
    }
  }
  return out;
}

std::vector<ArcId> extract_optimal_cycle(const Graph& g, const Rational& value,
                                         ProblemKind kind) {
  const LambdaProbe at_value = lambda_probe(g, value, kind);
  if (at_value.has_negative_cycle) {
    throw std::invalid_argument(
        "extract_optimal_cycle: value exceeds the optimum (negative cycle exists)");
  }
  std::vector<ArcId> cycle = find_any_cycle(g, at_value.critical_arcs);
  if (cycle.empty()) {
    throw std::invalid_argument(
        "extract_optimal_cycle: no cycle in the critical subgraph (value below optimum?)");
  }
  return cycle;
}

}  // namespace mcr
