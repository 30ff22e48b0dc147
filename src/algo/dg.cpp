// DG: the Dasdan-Gupta breadth-first unfolding variant of Karp's
// algorithm (Dasdan & Gupta, TCAD 1998; §2.2 of the paper).
//
// Karp's recurrence pulls D_k(v) from every predecessor of every node at
// every level, paying Theta(nm) regardless of the graph. DG instead
// pushes from the set of nodes that actually have a k-arc path from the
// source ("visits the successors of nodes rather than their
// predecessors"), i.e. it breadth-first-expands the unfolding of G. The
// work equals the size of the unfolded graph: Theta(m) when per-level
// frontiers stay small (rings, circuit-like graphs — the 512x512 row of
// Table 2 shows 0.06s vs Karp's 0.79s) and O(nm) when the graph is
// dense enough that every level touches every node (the paper's random
// graphs, where "the improvement ... is very small", §4.4).
//
// Karp's formula and the int64/int128 width rule are the Karp family's
// shared engine (algo/karp_family.h), fed from the unfolding's arena.
#include <optional>
#include <vector>

#include "algo/algorithms.h"
#include "algo/karp_family.h"
#include "core/result.h"
#include "obs/obs.h"

namespace mcr {

namespace {

template <typename D>
std::optional<Rational> dg_value(const Graph& g, OpCounters& counters) {
  const NodeId n = g.num_nodes();
  const std::size_t un = static_cast<std::size_t>(n);

  // The unfolding: one flat arena of (node, D_k(node)) entries with
  // per-level offsets — exactly the nodes that have a k-arc path from
  // the source. The arena's total size is the "size of the unfolded
  // graph" that bounds DG's running time, and keeping it flat (one
  // allocation, appended linearly) is what makes each visited arc as
  // cheap as one of Karp's recurrence reads.
  struct Entry {
    NodeId node;
    D dist;
  };
  std::vector<Entry> arena;
  // Worst case the unfolding touches every node at every level (dense
  // random graphs); reserving the full Theta(n^2) arena up front
  // avoids reallocation copies and is the same quadratic footprint
  // the paper attributes to DG (Table 2 shows N/A at n >= 8192).
  arena.reserve((un + 1) * un);
  std::vector<std::size_t> level_first(un + 2, 0);
  arena.push_back({0, D{0}});
  level_first[1] = 1;

  std::vector<D> cur_val(un, D{0});
  std::vector<NodeId> stamp(un, -1);
  std::vector<NodeId> touched;
  touched.reserve(un);
  for (NodeId k = 1; k <= n; ++k) {
    const std::size_t begin = level_first[static_cast<std::size_t>(k - 1)];
    const std::size_t end = level_first[static_cast<std::size_t>(k)];
    touched.clear();
    for (std::size_t i = begin; i < end; ++i) {
      const NodeId u = arena[i].node;
      const D du = arena[i].dist;
      ++counters.node_visits;
      for (const ArcId a : g.out_arcs(u)) {
        ++counters.arc_scans;
        const NodeId v = g.dst(a);
        const D cand = du + g.weight(a);
        if (stamp[static_cast<std::size_t>(v)] != k) {
          stamp[static_cast<std::size_t>(v)] = k;
          cur_val[static_cast<std::size_t>(v)] = cand;
          touched.push_back(v);
        } else if (cand < cur_val[static_cast<std::size_t>(v)]) {
          cur_val[static_cast<std::size_t>(v)] = cand;
        }
      }
    }
    for (const NodeId v : touched) {
      arena.push_back({v, cur_val[static_cast<std::size_t>(v)]});
    }
    level_first[static_cast<std::size_t>(k) + 1] = arena.size();
  }

  // Evaluate Karp's formula over the touched (k, v) entries only.
  std::vector<D> dn(un, detail::no_walk<D>());
  for (std::size_t i = level_first[un]; i < level_first[un + 1]; ++i) {
    dn[static_cast<std::size_t>(arena[i].node)] = arena[i].dist;
  }
  detail::KarpFormula<D> formula(dn, n);
  for (NodeId k = 0; k < n; ++k) {
    for (std::size_t i = level_first[static_cast<std::size_t>(k)];
         i < level_first[static_cast<std::size_t>(k) + 1]; ++i) {
      formula.fold(arena[i].node, k, arena[i].dist);
    }
  }
  return formula.value();
}

class DgSolver final : public Solver {
 public:
  explicit DgSolver(const SolverConfig&) {}

  [[nodiscard]] std::string name() const override { return "dg"; }
  [[nodiscard]] ProblemKind kind() const override { return ProblemKind::kCycleMean; }

  [[nodiscard]] CycleResult solve_scc(const Graph& g,
                                      const TileExec& /*tiles*/) const override {
    const NodeId n = g.num_nodes();
    CycleResult result;
    // Every arena entry is the weight of a walk of at most n arcs.
    const auto value = with_width(n * max_abs_weight(g), &result.counters, [&](auto zero) {
      return dg_value<decltype(zero)>(g, result.counters);
    });
    result.counters.iterations = static_cast<std::uint64_t>(n);
    obs::emit(obs::EventKind::kIteration, "dg.levels", n);

    result.has_cycle = value.has_value();  // always, per contract
    result.value = value.value_or(Rational());
    return result;
  }
};

}  // namespace

std::unique_ptr<Solver> make_dg_solver(const SolverConfig& config) {
  return std::make_unique<DgSolver>(config);
}

}  // namespace mcr
