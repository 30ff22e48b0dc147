#include "core/verify.h"

#include <cmath>
#include <vector>

#include "core/critical.h"
#include "graph/traversal.h"

namespace mcr {

namespace {

VerifyOutcome fail(std::string msg) { return VerifyOutcome{false, std::move(msg)}; }

VerifyOutcome check_witness(const Graph& g, const CycleResult& result, ProblemKind kind) {
  if (!result.has_cycle) {
    if (has_cycle(g)) return fail("result reports no cycle but the graph is cyclic");
    return VerifyOutcome{true, {}};
  }
  if (!has_cycle(g)) return fail("result reports a cycle but the graph is acyclic");
  if (!is_valid_cycle(g, result.cycle)) return fail("witness is not a valid cycle");
  const Rational achieved = cycle_value(g, kind, result.cycle);
  if (achieved != result.value) {
    return fail("witness cycle achieves " + achieved.to_string() + ", result claims " +
                result.value.to_string());
  }
  return VerifyOutcome{true, {}};
}

}  // namespace

VerifyOutcome verify_result(const Graph& g, const CycleResult& result, ProblemKind kind) {
  VerifyOutcome w = check_witness(g, result, kind);
  if (!w.ok || !result.has_cycle) return w;
  // Optimality: no cycle in G_value is negative. The probe runs in
  // 128 bits when w*den - num*t could leave the int64 range, so the
  // verifier stays exact on exactly those adversarial instances.
  if (lambda_probe(g, result.value, kind).has_negative_cycle) {
    return fail("a cycle better than " + result.value.to_string() + " exists");
  }
  return VerifyOutcome{true, {}};
}

VerifyOutcome verify_result_approx(const Graph& g, const CycleResult& result,
                                   ProblemKind kind, double epsilon) {
  VerifyOutcome w = check_witness(g, result, kind);
  if (!w.ok || !result.has_cycle) return w;
  // Floating-point Bellman-Ford at value - epsilon: adequate for an
  // epsilon-slack check (the exact verifier is used for exact solvers).
  const double bar = result.value.to_double() - epsilon;
  const NodeId n = g.num_nodes();
  std::vector<double> dist(static_cast<std::size_t>(n), 0.0);
  bool relaxed = false;
  for (NodeId pass = 0; pass <= n; ++pass) {
    relaxed = false;
    for (ArcId a = 0; a < g.num_arcs(); ++a) {
      const auto t = static_cast<double>(arc_transit(g, kind, a));
      const double c = static_cast<double>(g.weight(a)) - bar * t;
      const double cand = dist[static_cast<std::size_t>(g.src(a))] + c;
      if (cand < dist[static_cast<std::size_t>(g.dst(a))] - 1e-12) {
        dist[static_cast<std::size_t>(g.dst(a))] = cand;
        relaxed = true;
      }
    }
    if (!relaxed) break;
  }
  if (relaxed) {
    return fail("a cycle more than epsilon better than " + result.value.to_string() +
                " exists");
  }
  return VerifyOutcome{true, {}};
}

}  // namespace mcr
