// Critical subgraph extraction (§2 of the paper).
//
// Given lambda*, an arc (u,v) is *critical* when d(v) - d(u) =
// w(u,v) - lambda* * t(u,v), where d are shortest-path potentials in
// G_lambda*. The critical subgraph contains every optimum cycle; it is
// "the arcs and nodes that determine the performance of the system".
// We compute it exactly with integer arithmetic: scale all quantities by
// den(lambda*).
#ifndef MCR_CORE_CRITICAL_H
#define MCR_CORE_CRITICAL_H

#include <vector>

#include "core/problem.h"
#include "core/result.h"
#include "graph/arc_tiles.h"
#include "graph/graph.h"
#include "support/op_counters.h"
#include "support/rational.h"

namespace mcr {

struct CriticalSubgraph {
  /// Arcs satisfying the criticality criterion.
  std::vector<ArcId> arcs;
  /// Nodes adjacent to at least one critical arc, sorted ascending.
  std::vector<NodeId> nodes;
  /// Shortest-path potentials used (scaled by den(lambda)); exposed for
  /// clock-schedule style applications that need slacks.
  std::vector<std::int64_t> scaled_potential;
};

/// Computes the critical subgraph of g at the given optimum value.
/// `kind` selects mean (transit ignored) or ratio. Throws
/// std::invalid_argument if `value` exceeds the true optimum (then
/// G_value has a negative cycle, so potentials do not exist).
[[nodiscard]] CriticalSubgraph critical_subgraph(const Graph& g, const Rational& value,
                                                 ProblemKind kind);

/// Extracts one optimum cycle given the optimum value: every cycle made
/// solely of critical arcs achieves `value` exactly (summing the tight
/// inequalities around the cycle), and at least one such cycle exists.
/// O(n + m) after the O(nm) potential computation. Throws if `value` is
/// not the exact optimum of a cyclic graph.
[[nodiscard]] std::vector<ArcId> extract_optimal_cycle(const Graph& g,
                                                       const Rational& value,
                                                       ProblemKind kind);

/// Per-arc slack at the given value, scaled by den(value):
///   slack(e) = d(u) + w(e)*den - num*t(e) - d(v)  >= 0,
/// where d are the scaled shortest-path potentials. Zero slack ==
/// critical arc. For clock-scheduling applications the slack is the
/// timing margin of the register-to-register path at the optimum
/// period. Throws like critical_subgraph when value exceeds the optimum.
[[nodiscard]] std::vector<std::int64_t> arc_slacks(const Graph& g, const Rational& value,
                                                   ProblemKind kind);

/// The arcs lying on at least one *optimum* cycle: the union of the
/// cyclic strongly connected components of the critical subgraph (a
/// critical arc chains into an optimum cycle iff it sits inside such a
/// component — every cycle of critical arcs achieves the optimum).
/// `value` must be the exact optimum of a cyclic graph.
[[nodiscard]] std::vector<ArcId> optimal_arc_set(const Graph& g, const Rational& value,
                                                 ProblemKind kind);

/// The lambda-transformed integer arc costs used throughout the library:
/// cost(e) = w(e)*den(value) - num(value)*t(e), with t(e) == 1 for mean
/// problems. A cycle is negative under these costs iff its mean/ratio is
/// below `value`. Throws NumericOverflow (support/checked.h) when a
/// transformed cost does not fit int64.
[[nodiscard]] std::vector<std::int64_t> lambda_costs(const Graph& g, const Rational& value,
                                                     ProblemKind kind);

/// The outcome of lambda_probe.
struct LambdaProbe {
  /// True iff some cycle's mean/ratio is below `value`.
  bool has_negative_cycle = false;
  /// That negative cycle, in traversal order, when has_negative_cycle.
  std::vector<ArcId> cycle;
  /// Otherwise: the critical arcs, tight under shortest-path potentials
  /// of G_value (every cycle among them achieves `value`).
  std::vector<ArcId> critical_arcs;
};

/// The lambda-probe: the negative-cycle test of G_value under the
/// lambda-transformed costs, by Bellman-Ford, run in int64 when the range
/// rule (support/int_range.h) admits (n+1) * max|cost| and in int128
/// otherwise, counting one numeric promotion in `counters`. A value too
/// wide for 128-bit costs throws NumericOverflow. `tiles` spreads the
/// sweeps across a pool (graph/arc_tiles.h) without changing the outcome.
[[nodiscard]] LambdaProbe lambda_probe(const Graph& g, const WideRational& value,
                                       ProblemKind kind, OpCounters* counters = nullptr,
                                       const TileExec& tiles = {});

/// The exact finish every solver shares: from `cycle` (any cycle of the
/// cyclic g when empty), cancel cycles, adopting a negative cycle of
/// G_value while one exists. Sets result's value, witness and has_cycle
/// and counts the probes as feasibility_checks. Steps may pass values
/// beyond Rational; an optimum beyond it throws NumericOverflow.
///
/// Burns, Lawler and OA1 end here after their floating-point phase,
/// Howard's valves, Megiddo and HO's ratio table when they stop early,
/// and Howard, KO/YTO and Megiddo on components outside the range rule.
/// One probe suffices when the start cycle is optimal; each further
/// round strictly lowers the value. `tiles` spreads the probes' sweeps
/// across the driver's pool; the outcome is identical either way.
void finish_exact(const Graph& g, ProblemKind kind, std::vector<ArcId> cycle,
                  CycleResult& result, const TileExec& tiles = {});

}  // namespace mcr

#endif  // MCR_CORE_CRITICAL_H
