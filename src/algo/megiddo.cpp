// Megiddo's parametric-search algorithm for minimum cost-to-time ratio
// cycles (Megiddo 1979, "Combinatorial optimization with rational
// objective functions" — Table 1 row 12 of the paper, O(n^2 m lg n)).
//
// Idea: run Bellman-Ford *symbolically* at the unknown optimum rho*.
// Every tentative distance is a linear function a + b*rho (a = path
// weight, b = -path transit); relaxation must compare two such lines at
// rho = rho*. Megiddo's trick: maintain an interval (lo, hi) certified
// to contain rho*; if the two lines do not cross inside it, the
// comparison is already decided; otherwise ask the *oracle* — an exact
// integer Bellman-Ford feasibility test at the crossing point rho0 —
// which simultaneously decides the comparison and shrinks the interval
// (and, on the infeasible side, returns a witness cycle that tightens
// hi to an exact cycle value). When the symbolic run converges, rho*
// has been pinned: the best witness, finished by exact cycle canceling,
// is the optimum. Comparisons at interval endpoints use exact rational
// evaluation (128-bit), so no floating point enters the control flow.
#include <algorithm>
#include <vector>

#include "algo/algorithms.h"
#include "core/critical.h"
#include "core/result.h"
#include "graph/traversal.h"
#include "obs/obs.h"
#include "support/int128.h"
#include "support/int_range.h"

namespace mcr {

namespace {

/// Sign of (a + b*rho) at rho = p/q (q > 0): sign of a*q + b*p.
int sign_at(std::int64_t a, std::int64_t b, const Rational& rho) {
  const int128 v = static_cast<int128>(a) * rho.den() + static_cast<int128>(b) * rho.num();
  return v < 0 ? -1 : (v > 0 ? 1 : 0);
}

class MegiddoSolver final : public Solver {
 public:
  MegiddoSolver(const SolverConfig&, ProblemKind kind) : kind_(kind) {}

  [[nodiscard]] std::string name() const override {
    return kind_ == ProblemKind::kCycleMean ? "megiddo" : "megiddo_ratio";
  }
  [[nodiscard]] ProblemKind kind() const override { return kind_; }

  [[nodiscard]] CycleResult solve_scc(const Graph& g,
                                      const TileExec& /*tiles*/) const override {
    const NodeId n = g.num_nodes();
    const std::size_t un = static_cast<std::size_t>(n);
    const ArcId m = g.num_arcs();
    CycleResult result;

    // The range rule (support/int_range.h): a symbolic label is a walk
    // that grows by at most one arc per arc scan, (n+1)*m arcs in all, of
    // weight and transit within that times max(max|w|, T), T = 1 (mean)
    // or the total transit (ratio); comparisons subtract two labels, one
    // arc longer at most. Out of range, the component goes to the finish.
    const int128 t = kind_ == ProblemKind::kCycleMean ? 1 : g.total_transit();
    if (!fits_int64(2 * ((n + int128{1}) * m + 1) * std::max(max_abs_weight(g), t))) {
      ++result.counters.numeric_promotions;
      finish_exact(g, kind_, {}, result);
      return result;
    }

    // Certified interval (lo, hi]: lo below every cycle value, hi the
    // exact value of a concrete witness cycle.
    std::vector<ArcId> witness = find_any_cycle(g);
    Rational hi = cycle_value(g, kind_, witness);
    Rational lo =
        Rational(-(std::abs(g.min_weight()) + std::abs(g.max_weight()) + 1) *
                 static_cast<std::int64_t>(n)) -
        Rational(1);

    // Oracle: is rho* >= rho0? (no negative cycle at rho0). Shrinks the
    // interval either way; infeasible probes snap hi to a cycle value.
    const auto oracle_geq = [&](const Rational& rho0) -> bool {
      ++result.counters.feasibility_checks;
      obs::emit(obs::EventKind::kFeasibilityProbe, "megiddo.oracle",
                static_cast<std::int64_t>(result.counters.feasibility_checks));
      LambdaProbe probe = lambda_probe(g, rho0, kind_, &result.counters);
      if (!probe.has_negative_cycle) {
        if (rho0 > lo) lo = rho0;
        return true;
      }
      const Rational found = cycle_value(g, kind_, probe.cycle);
      if (found < hi) {
        hi = found;
        witness = std::move(probe.cycle);
      }
      return false;
    };

    // Symbolic distances a + b*rho from the virtual super-source.
    std::vector<std::int64_t> av(un, 0);
    std::vector<std::int64_t> bv(un, 0);

    // Returns true iff (a1 + b1*rho*) < (a2 + b2*rho*).
    const auto less_at_opt = [&](std::int64_t a1, std::int64_t b1, std::int64_t a2,
                                 std::int64_t b2) -> bool {
      const std::int64_t da = a1 - a2;
      const std::int64_t db = b1 - b2;
      const int s_lo = sign_at(da, db, lo);
      const int s_hi = sign_at(da, db, hi);
      if (s_lo < 0 && s_hi < 0) return true;
      if (s_lo >= 0 && s_hi >= 0) return false;
      // The lines cross strictly inside (lo, hi): resolve at rho0.
      if (db == 0) return da < 0;  // parallel: cannot actually cross
      const Rational rho0(-da, db);
      if (oracle_geq(rho0)) {
        // rho* >= rho0: the sign at (rho0, hi] rules; use hi's sign,
        // treating exact ties at rho* == rho0 as "not less" (safe for
        // shortest paths; the final refinement is exact regardless).
        return sign_at(da, db, hi) < 0 && sign_at(da, db, rho0) <= 0;
      }
      return sign_at(da, db, lo) < 0;
    };

    // Bellman-Ford over the symbolic labels with early exit.
    for (NodeId pass = 0; pass <= n; ++pass) {
      ++result.counters.iterations;
      obs::emit(obs::EventKind::kIteration, "megiddo.pass", pass);
      bool changed = false;
      for (ArcId a = 0; a < m; ++a) {
        ++result.counters.arc_scans;
        const NodeId u = g.src(a);
        const NodeId v = g.dst(a);
        const std::int64_t ca = av[static_cast<std::size_t>(u)] + g.weight(a);
        const std::int64_t cb = bv[static_cast<std::size_t>(u)] - arc_transit(g, kind_, a);
        if (less_at_opt(ca, cb, av[static_cast<std::size_t>(v)],
                        bv[static_cast<std::size_t>(v)])) {
          av[static_cast<std::size_t>(v)] = ca;
          bv[static_cast<std::size_t>(v)] = cb;
          changed = true;
          ++result.counters.relaxations;
        }
      }
      if (!changed) break;
    }

    // The symbolic run pinned rho* into (lo, hi] with hi achieved by a
    // real cycle; cycle canceling certifies (and repairs any boundary
    // tie decisions).
    finish_exact(g, kind_, std::move(witness), result);
    return result;
  }

 private:
  ProblemKind kind_;
};

}  // namespace

std::unique_ptr<Solver> make_megiddo_solver(const SolverConfig& config) {
  return std::make_unique<MegiddoSolver>(config, ProblemKind::kCycleMean);
}

std::unique_ptr<Solver> make_megiddo_ratio_solver(const SolverConfig& config) {
  return std::make_unique<MegiddoSolver>(config, ProblemKind::kCycleRatio);
}

}  // namespace mcr
