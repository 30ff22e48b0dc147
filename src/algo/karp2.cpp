// Karp2: the space-efficient two-pass version of Karp's algorithm
// (suggested to the authors by S. Gaubert; §2.2 of the paper).
//
// Karp's algorithm needs the whole Theta(n^2) D table only to evaluate
// min_v max_k (D_n(v) - D_k(v)) / (n - k) at the end. Karp2 runs the
// recurrence twice with two rolling rows of Theta(n) space: pass 1
// computes D_n(v); pass 2 recomputes each D_k(v) in order and folds it
// into the running max for each v. The paper observes this "roughly
// doubles the running time, as expected" (§4.4) — the shape
// bench_karp_variants reproduces.
//
// The level sweep, the formula and the int64/int128 width rule are the
// Karp family's shared engine (algo/karp_family.h); the pass-2 per-node
// max fold rides inside the sweep's apply step. Both are
// per-node-independent, so results are bit-identical for any tile size
// and thread count.
#include <optional>
#include <vector>

#include "algo/algorithms.h"
#include "algo/karp_family.h"
#include "core/result.h"
#include "obs/obs.h"

namespace mcr {

namespace {

template <typename D>
std::optional<Rational> karp2_value(const Graph& g, OpCounters& counters,
                                    const TileExec& tiles) {
  const NodeId n = g.num_nodes();
  const std::size_t un = static_cast<std::size_t>(n);
  std::vector<D> prev(un, detail::no_walk<D>());
  std::vector<D> cur(un, detail::no_walk<D>());

  detail::LevelSweep<D> sweep(g, tiles, counters);
  const auto advance = [&](const auto& apply) {
    sweep.run(prev.data(), apply);
    prev.swap(cur);
  };
  const auto store = [&](NodeId v, D best) { cur[static_cast<std::size_t>(v)] = best; };

  // Pass 1: compute D_n into `prev`.
  prev[0] = D{0};
  for (NodeId k = 1; k <= n; ++k) advance(store);
  detail::KarpFormula<D> formula(prev, n);

  // Pass 2: recompute D_k for k = 0..n-1. The fold for level k rides in
  // the advance to level k (each node folds its own slot, so the tiled
  // sweep stays race-free and deterministic).
  prev.assign(un, detail::no_walk<D>());
  prev[0] = D{0};
  formula.fold(0, 0, D{0});  // level 0 has the single finite entry D_0(0) = 0
  for (NodeId k = 1; k < n; ++k) {
    advance([&](NodeId v, D best) {
      cur[static_cast<std::size_t>(v)] = best;
      formula.fold(v, k, best);
    });
  }
  return formula.value();
}

class Karp2Solver final : public Solver {
 public:
  explicit Karp2Solver(const SolverConfig&) {}

  [[nodiscard]] std::string name() const override { return "karp2"; }
  [[nodiscard]] ProblemKind kind() const override { return ProblemKind::kCycleMean; }

  [[nodiscard]] CycleResult solve_scc(const Graph& g,
                                      const TileExec& tiles) const override {
    const NodeId n = g.num_nodes();
    CycleResult result;
    // Both passes hold weights of walks of at most n arcs.
    const auto value = with_width(n * max_abs_weight(g), &result.counters, [&](auto zero) {
      return karp2_value<decltype(zero)>(g, result.counters, tiles);
    });
    result.counters.iterations = 2 * static_cast<std::uint64_t>(n);
    obs::emit(obs::EventKind::kIteration, "karp2.levels", 2 * n);

    result.has_cycle = value.has_value();  // always, per contract
    result.value = value.value_or(Rational());
    return result;
  }
};

}  // namespace

std::unique_ptr<Solver> make_karp2_solver(const SolverConfig& config) {
  return std::make_unique<Karp2Solver>(config);
}

}  // namespace mcr
