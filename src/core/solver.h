// The solver interface all algorithms implement.
//
// A solver answers one query: the minimum cycle mean (or ratio) of a
// STRONGLY CONNECTED, CYCLIC graph. The public entry points in
// core/driver.h take arbitrary graphs, decompose into SCCs, and call
// solve_scc per cyclic component — exactly the setup the paper used for
// all algorithms (§2). Keeping the per-SCC contract here lets each
// algorithm shed its special cases, "which simplifies most of the
// algorithms and generally improves their running times in practice".
#ifndef MCR_CORE_SOLVER_H
#define MCR_CORE_SOLVER_H

#include <string>

#include "core/problem.h"
#include "core/result.h"
#include "graph/arc_tiles.h"
#include "graph/graph.h"

namespace mcr {

class Solver {
 public:
  virtual ~Solver() = default;

  /// Registry name, e.g. "howard".
  [[nodiscard]] virtual std::string name() const = 0;

  /// Which objective this solver computes.
  [[nodiscard]] virtual ProblemKind kind() const = 0;

  /// Solves on a strongly connected graph containing at least one cycle.
  /// Must return has_cycle == true with the exact optimum value.
  /// Solvers whose computation yields a witness cycle for free (policy
  /// iteration, parametric pivots, negative-cycle probes) return it in
  /// `cycle`; the Karp-family solvers, which compute only the value,
  /// may leave `cycle` empty — the driver then recovers a witness once,
  /// for the winning component, via extract_optimal_cycle().
  /// Preconditions are the caller's responsibility (see core/driver.h).
  ///
  /// The driver passes its TileExec so solvers with tiled relaxation
  /// kernels (Bellman-Ford-based probes, the Karp family, Howard's
  /// improve step) can spread one component's sweeps across the worker
  /// pool; the other solvers ignore it. The result must not depend on
  /// the tile size or the thread count (the driver's determinism
  /// contract).
  [[nodiscard]] virtual CycleResult solve_scc(const Graph& g,
                                              const TileExec& tiles) const = 0;

  /// Untiled solve.
  [[nodiscard]] CycleResult solve_scc(const Graph& g) const {
    return solve_scc(g, TileExec{});
  }
};

}  // namespace mcr

#endif  // MCR_CORE_SOLVER_H
