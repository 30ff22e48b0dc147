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
#include "support/int_range.h"

namespace mcr {

namespace {

/// cost(e) = w(e)*den - num*t(e), exact, and max |cost|. A value with
/// int64 parts (every Rational) keeps |cost| < 2^127; a wider one is
/// checked and throws NumericOverflow past 128 bits.
std::vector<int128> wide_lambda_costs(const Graph& g, const WideRational& value,
                                      ProblemKind kind, int128& max_abs_cost) {
  const auto num = static_cast<std::int64_t>(value.num);
  const auto den = static_cast<std::int64_t>(value.den);
  const bool int64_parts = num == value.num && den == value.den;
  std::vector<int128> cost(static_cast<std::size_t>(g.num_arcs()));
  max_abs_cost = 0;
  for (ArcId a = 0; a < g.num_arcs(); ++a) {
    const std::int64_t t = arc_transit(g, kind, a);
    int128 c = 0;
    if (int64_parts) {
      c = static_cast<int128>(g.weight(a)) * den - static_cast<int128>(num) * t;
    } else if (int128 wd = 0, nt = 0;
               __builtin_mul_overflow(static_cast<int128>(g.weight(a)), value.den, &wd) ||
               __builtin_mul_overflow(value.num, static_cast<int128>(t), &nt) ||
               __builtin_sub_overflow(wd, nt, &c) || c == -kInt128Max - 1) {
      throw NumericOverflow("lambda-probe costs (beyond 128 bits)");
    }
    cost[static_cast<std::size_t>(a)] = c;
    max_abs_cost = std::max(max_abs_cost, c < 0 ? -c : c);
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

/// The probe over costs of the width the range rule picked.
template <typename Cost>
LambdaProbe probe(const Graph& g, const std::vector<Cost>& cost, OpCounters* counters,
                  const TileExec& tiles) {
  auto bf = detail::run_bellman_ford<Cost>(g, std::span<const Cost>(cost), counters, tiles);
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
  int128 max_abs_cost = 0;
  const std::vector<int128> cost = wide_lambda_costs(g, value, kind, max_abs_cost);
  if (max_abs_cost > INT64_MAX) throw NumericOverflow("lambda_costs (beyond int64)");
  return {cost.begin(), cost.end()};
}

LambdaProbe lambda_probe(const Graph& g, const WideRational& value, ProblemKind kind,
                         OpCounters* counters, const TileExec& tiles) {
  int128 max_abs_cost = 0;
  const std::vector<int128> cost = wide_lambda_costs(g, value, kind, max_abs_cost);
  // Every potential and candidate is the cost of a walk of at most n+1
  // arcs, so (n+1) * max|cost| bounds them all (capping max|cost| at the
  // limit keeps the product in int128 and the verdict unchanged).
  const int128 walk_arcs = g.num_nodes() + int128{1};
  if (max_abs_cost > kInt128Max / walk_arcs) {
    throw NumericOverflow("lambda-probe potentials (beyond 128 bits)");
  }
  const int128 bound = walk_arcs * std::min(max_abs_cost, int128{kInt64Limit});
  return with_width(bound, counters, [&](auto zero) {
    if constexpr (std::is_same_v<decltype(zero), std::int64_t>) {
      return probe(g, std::vector<std::int64_t>(cost.begin(), cost.end()), counters, tiles);
    } else {
      return probe(g, cost, counters, tiles);
    }
  });
}

void finish_exact(const Graph& g, ProblemKind kind, std::vector<ArcId> cycle,
                  CycleResult& result, const TileExec& tiles) {
  if (cycle.empty()) cycle = find_any_cycle(g);
  // Steps run on wide values; only the optimum must fit a Rational.
  WideRational value = wide_cycle_value(g, kind, cycle);
  for (;;) {
    ++result.counters.feasibility_checks;
    obs::emit(obs::EventKind::kFeasibilityProbe, "refine.probe",
              static_cast<std::int64_t>(result.counters.feasibility_checks));
    LambdaProbe found = lambda_probe(g, value, kind, &result.counters, tiles);
    if (!found.has_negative_cycle) break;
    cycle = std::move(found.cycle);
    value = wide_cycle_value(g, kind, cycle);
  }
  result.has_cycle = true;
  result.value = value.to_rational();
  result.cycle = std::move(cycle);
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
