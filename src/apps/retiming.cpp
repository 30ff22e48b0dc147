#include "apps/retiming.h"

#include <algorithm>
#include <stdexcept>

#include "core/driver.h"
#include "graph/bellman_ford.h"
#include "graph/builder.h"
#include "graph/traversal.h"
#include "support/int_range.h"

namespace mcr::apps {

namespace {

constexpr std::int64_t kInf = kInt64Limit;

void validate(const Graph& g, std::span<const std::int64_t> gate_delay) {
  if (gate_delay.size() != static_cast<std::size_t>(g.num_nodes())) {
    throw std::invalid_argument("retiming: gate_delay size mismatch");
  }
  for (const std::int64_t d : gate_delay) {
    if (d < 0) throw std::invalid_argument("retiming: negative gate delay");
  }
  std::vector<ArcSpec> zero_arcs;
  for (ArcId a = 0; a < g.num_arcs(); ++a) {
    if (g.weight(a) < 0) {
      throw std::invalid_argument("retiming: negative register count");
    }
    if (g.weight(a) == 0) zero_arcs.push_back(ArcSpec{g.src(a), g.dst(a), 0, 0});
  }
  if (!zero_arcs.empty() && has_cycle(Graph(g.num_nodes(), zero_arcs))) {
    throw std::invalid_argument("retiming: combinational loop (zero-register cycle)");
  }
}

/// Longest register-free-path delay ending at each node.
std::int64_t period_of(const Graph& g, std::span<const std::int64_t> gate_delay) {
  std::vector<ArcSpec> zero_arcs;
  for (ArcId a = 0; a < g.num_arcs(); ++a) {
    if (g.weight(a) == 0) {
      zero_arcs.push_back(ArcSpec{g.src(a), g.dst(a), 0, 0});
    }
  }
  const Graph zero_sub(g.num_nodes(), zero_arcs);
  const std::vector<NodeId> topo = topological_order(zero_sub);
  std::vector<std::int64_t> ending(static_cast<std::size_t>(g.num_nodes()), 0);
  std::int64_t period = 0;
  for (const NodeId v : topo) {
    std::int64_t best = 0;
    for (const ArcId a : zero_sub.in_arcs(v)) {
      best = std::max(best, ending[static_cast<std::size_t>(zero_sub.src(a))]);
    }
    ending[static_cast<std::size_t>(v)] = best + gate_delay[static_cast<std::size_t>(v)];
    period = std::max(period, ending[static_cast<std::size_t>(v)]);
  }
  return period;
}

struct WdMatrices {
  // Row-major n x n; W = min registers on any u->v path, D = max delay
  // among the register-minimal paths. kInf in W marks "no path".
  std::vector<std::int64_t> w;
  std::vector<std::int64_t> d;
};

/// All-pairs lexicographic shortest paths (Floyd-Warshall on the pair
/// (registers, -delay)); the Leiserson-Saxe W/D matrices.
WdMatrices compute_wd(const Graph& g, std::span<const std::int64_t> gate_delay) {
  const std::size_t n = static_cast<std::size_t>(g.num_nodes());
  WdMatrices out;
  out.w.assign(n * n, kInf);
  out.d.assign(n * n, 0);
  const auto at = [n](std::vector<std::int64_t>& v, std::size_t i, std::size_t j)
      -> std::int64_t& { return v[i * n + j]; };

  // Arc base cases: pair cost (w(e), -d(src)).
  for (ArcId a = 0; a < g.num_arcs(); ++a) {
    const auto u = static_cast<std::size_t>(g.src(a));
    const auto v = static_cast<std::size_t>(g.dst(a));
    if (u == v) continue;  // self-loop: never on a simple u->v path
    const std::int64_t wr = g.weight(a);
    const std::int64_t neg_d = -gate_delay[u];
    if (wr < at(out.w, u, v) ||
        (wr == at(out.w, u, v) && neg_d < at(out.d, u, v))) {
      at(out.w, u, v) = wr;
      at(out.d, u, v) = neg_d;
    }
  }
  for (std::size_t k = 0; k < n; ++k) {
    for (std::size_t i = 0; i < n; ++i) {
      const std::int64_t wik = at(out.w, i, k);
      if (wik == kInf) continue;
      for (std::size_t j = 0; j < n; ++j) {
        const std::int64_t wkj = at(out.w, k, j);
        if (wkj == kInf) continue;
        const std::int64_t cand_w = wik + wkj;
        const std::int64_t cand_d = at(out.d, i, k) + at(out.d, k, j);
        if (cand_w < at(out.w, i, j) ||
            (cand_w == at(out.w, i, j) && cand_d < at(out.d, i, j))) {
          at(out.w, i, j) = cand_w;
          at(out.d, i, j) = cand_d;
        }
      }
    }
  }
  // Convert -delay(prefix) into D(u,v) = delay of the whole path
  // including v's own gate delay.
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (at(out.w, i, j) != kInf) {
        at(out.d, i, j) =
            -at(out.d, i, j) + static_cast<std::int64_t>(gate_delay[j]);
      }
    }
  }
  return out;
}

/// Feasibility of clock period c: solve the difference constraints by
/// Bellman-Ford on the constraint graph; returns labels or empty.
std::vector<std::int64_t> feasible_retiming(const Graph& g,
                                            std::span<const std::int64_t> gate_delay,
                                            const WdMatrices& wd, std::int64_t c) {
  const NodeId n = g.num_nodes();
  const std::size_t un = static_cast<std::size_t>(n);
  GraphBuilder b(n);
  std::vector<std::int64_t> costs;
  // r(u) - r(v) <= w(e): constraint arc v -> u with cost w(e).
  for (ArcId a = 0; a < g.num_arcs(); ++a) {
    b.add_arc(g.dst(a), g.src(a), 0);
    costs.push_back(g.weight(a));
  }
  // r(u) - r(v) <= W(u,v) - 1 whenever D(u,v) > c.
  for (std::size_t u = 0; u < un; ++u) {
    for (std::size_t v = 0; v < un; ++v) {
      if (u == v) continue;
      if (wd.w[u * un + v] == kInf) continue;
      if (wd.d[u * un + v] > c) {
        b.add_arc(static_cast<NodeId>(v), static_cast<NodeId>(u), 0);
        costs.push_back(wd.w[u * un + v] - 1);
      }
    }
  }
  // Node delays themselves must fit: d(v) > c is infeasible outright.
  for (std::size_t v = 0; v < un; ++v) {
    if (gate_delay[v] > c) return {};
  }
  const Graph constraint = b.build();
  const BellmanFordResult bf = bellman_ford_all(constraint, costs);
  if (bf.has_negative_cycle) return {};
  return bf.dist;  // r(v) = dist(v) satisfies all constraints
}

}  // namespace

std::int64_t clock_period(const Graph& circuit, std::span<const std::int64_t> gate_delay) {
  validate(circuit, gate_delay);
  return period_of(circuit, gate_delay);
}

Graph apply_retiming(const Graph& circuit, std::span<const std::int64_t> labels) {
  if (labels.size() != static_cast<std::size_t>(circuit.num_nodes())) {
    throw std::invalid_argument("apply_retiming: label count mismatch");
  }
  std::vector<ArcSpec> arcs;
  arcs.reserve(static_cast<std::size_t>(circuit.num_arcs()));
  for (ArcId a = 0; a < circuit.num_arcs(); ++a) {
    const std::int64_t wr = circuit.weight(a) +
                            labels[static_cast<std::size_t>(circuit.dst(a))] -
                            labels[static_cast<std::size_t>(circuit.src(a))];
    if (wr < 0) throw std::invalid_argument("apply_retiming: illegal retiming");
    arcs.push_back(ArcSpec{circuit.src(a), circuit.dst(a), wr, circuit.transit(a)});
  }
  return Graph(circuit.num_nodes(), arcs);
}

RetimingResult min_period_retiming(const Graph& circuit,
                                   std::span<const std::int64_t> gate_delay) {
  validate(circuit, gate_delay);
  RetimingResult result;

  // Cycle-ratio lower bound: weight each arc with its source's gate
  // delay, transit with the register count.
  {
    GraphBuilder b(circuit.num_nodes());
    for (ArcId a = 0; a < circuit.num_arcs(); ++a) {
      b.add_arc(circuit.src(a), circuit.dst(a),
                gate_delay[static_cast<std::size_t>(circuit.src(a))],
                circuit.weight(a));
    }
    const CycleResult r = maximum_cycle_ratio(b.build(), "howard_ratio");
    result.has_cycle = r.has_cycle;
    if (r.has_cycle) result.cycle_ratio_bound = r.value;
  }

  const WdMatrices wd = compute_wd(circuit, gate_delay);

  // Candidate periods: the distinct D values plus the max single delay.
  std::vector<std::int64_t> candidates;
  candidates.reserve(wd.d.size() + 1);
  const std::size_t un = static_cast<std::size_t>(circuit.num_nodes());
  for (std::size_t i = 0; i < un; ++i) {
    for (std::size_t j = 0; j < un; ++j) {
      if (i != j && wd.w[i * un + j] != kInf) candidates.push_back(wd.d[i * un + j]);
    }
  }
  for (std::size_t v = 0; v < un; ++v) {
    candidates.push_back(gate_delay[v]);
  }
  std::sort(candidates.begin(), candidates.end());
  candidates.erase(std::unique(candidates.begin(), candidates.end()), candidates.end());

  // Binary search the smallest feasible candidate.
  std::size_t lo = 0;
  std::size_t hi = candidates.size();  // candidates[hi-1] is always feasible
  std::vector<std::int64_t> best_labels;
  std::int64_t best_period = -1;
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    auto labels = feasible_retiming(circuit, gate_delay, wd, candidates[mid]);
    if (!labels.empty() || circuit.num_arcs() == 0) {
      best_labels = std::move(labels);
      best_period = candidates[mid];
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  if (best_period < 0) {
    throw std::logic_error("min_period_retiming: no feasible period found");
  }
  if (best_labels.empty()) {
    best_labels.assign(un, 0);
  }

  result.period = best_period;
  result.labels = std::move(best_labels);
  result.retimed_registers.reserve(static_cast<std::size_t>(circuit.num_arcs()));
  for (ArcId a = 0; a < circuit.num_arcs(); ++a) {
    result.retimed_registers.push_back(
        circuit.weight(a) + result.labels[static_cast<std::size_t>(circuit.dst(a))] -
        result.labels[static_cast<std::size_t>(circuit.src(a))]);
  }
  return result;
}

}  // namespace mcr::apps
