// Karp's minimum mean cycle algorithm (Karp 1978), Theta(nm) time,
// Theta(n^2) space.
//
// Karp's theorem: for any source s in a strongly connected graph,
//   lambda* = min_v max_{0<=k<=n-1} (D_n(v) - D_k(v)) / (n - k),
// where D_k(v) is the minimum weight of a k-arc path from s to v
// (+infinity if none). The D table is filled by the recurrence
//   D_k(v) = min over arcs (u,v) of D_{k-1}(u) + w(u,v),
// which makes the best and worst cases identical — the reason the
// paper's variants (DG, HO, Karp2) exist.
//
// Karp keeps the whole table and evaluates the formula once at the end;
// the level sweep, the formula and the int64/int128 width rule are the
// Karp family's shared engine (algo/karp_family.h). The witness cycle
// is recovered generically from the critical subgraph at lambda*
// (core/critical.h), keeping this implementation exactly the three
// simple nested loops whose compiler-friendliness the paper remarks on
// (§4.5).
//
// Both hot phases tile (graph/arc_tiles.h): each level of the table
// fill is a snapshot sweep, and the formula splits into node chunks
// folded across the pool (every node folds only its own slot). Results
// are bit-identical for any tile size and thread count.
#include <algorithm>
#include <optional>
#include <vector>

#include "algo/algorithms.h"
#include "algo/karp_family.h"
#include "core/result.h"
#include "obs/obs.h"
#include "support/thread_pool.h"

namespace mcr {

namespace {

/// Fills D (n+1 rows) and evaluates Karp's formula over it.
template <typename D>
std::optional<Rational> karp_value(const Graph& g, OpCounters& counters,
                                   const TileExec& tiles) {
  const NodeId n = g.num_nodes();
  const std::size_t un = static_cast<std::size_t>(n);

  // D[k][v], k = 0..n. Row-major in one allocation.
  std::vector<D> d((un + 1) * un, detail::no_walk<D>());
  d[0] = D{0};  // D_0(source = node 0)
  detail::LevelSweep<D> sweep(g, tiles, counters);
  for (NodeId k = 1; k <= n; ++k) {
    D* cur = d.data() + static_cast<std::size_t>(k) * un;
    sweep.run(cur - un, [&](NodeId v, D best) { cur[static_cast<std::size_t>(v)] = best; });
  }

  detail::KarpFormula<D> formula(std::span<const D>(d.data() + un * un, un), n);
  ThreadPool* pool = tiles.enabled() ? tiles.pool : nullptr;
  const std::size_t chunks =
      pool != nullptr
          ? std::min<std::size_t>(un, 8 * static_cast<std::size_t>(pool->size()))
          : std::size_t{1};
  const std::size_t chunk_nodes = chunks ? (un + chunks - 1) / chunks : 0;
  run_indexed(pool, chunks, [&](std::size_t c) {
    formula.fold_table(d.data(), static_cast<NodeId>(c * chunk_nodes),
                       static_cast<NodeId>(std::min(un, (c + 1) * chunk_nodes)));
  });
  return formula.value();
}

class KarpSolver final : public Solver {
 public:
  explicit KarpSolver(const SolverConfig&) {}

  [[nodiscard]] std::string name() const override { return "karp"; }
  [[nodiscard]] ProblemKind kind() const override { return ProblemKind::kCycleMean; }

  [[nodiscard]] CycleResult solve_scc(const Graph& g,
                                      const TileExec& tiles) const override {
    const NodeId n = g.num_nodes();
    CycleResult result;
    // Every D_k(v) is the weight of a walk of at most n arcs.
    const auto value = with_width(n * max_abs_weight(g), &result.counters, [&](auto zero) {
      return karp_value<decltype(zero)>(g, result.counters, tiles);
    });
    result.counters.iterations = static_cast<std::uint64_t>(n);
    // Karp is a fixed n-level table fill; one summary instant in place
    // of n per-level events keeps traces of big instances readable.
    obs::emit(obs::EventKind::kIteration, "karp.levels", n);

    result.has_cycle = value.has_value();  // always, per contract
    result.value = value.value_or(Rational());
    return result;
  }
};

}  // namespace

std::unique_ptr<Solver> make_karp_solver(const SolverConfig& config) {
  return std::make_unique<KarpSolver>(config);
}

}  // namespace mcr
