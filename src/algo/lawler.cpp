// Lawler's algorithm (Lawler 1976; §2.4 of the paper), mean and ratio
// versions, plus the improved variant the paper's conclusion announces
// as follow-up work.
//
// lambda* is the largest lambda for which G_lambda has no negative
// cycle, and it lies between the smallest and largest arc weight
// (weight/transit ratio). Lawler binary-searches that interval; each
// probe is a Bellman-Ford negative-cycle check on the lambda-
// transformed costs. The interval width epsilon at termination is the
// algorithm's precision — the paper classifies it as approximate and
// measures it as the slowest algorithm in Table 2 (each infeasible
// probe pays the full Theta(nm) negative-cycle proof).
//
// Variants:
//   * "lawler" — the classic bisection the paper timed: hi/lo move to
//     the probed midpoint only.
//   * "lawler_improved" — the strengthening from the authors' §5
//     follow-up: every negative cycle found becomes a witness whose
//     exact mean tightens the upper bound directly, collapsing the
//     search after a handful of probes.
// Both track the best witness cycle and finish with finish_exact, so
// the returned value is exact regardless of epsilon.
#include <algorithm>
#include <vector>

#include "algo/algorithms.h"
#include "core/critical.h"
#include "core/result.h"
#include "graph/bellman_ford.h"
#include "graph/traversal.h"
#include "obs/obs.h"

namespace mcr {

namespace {

class LawlerSolver final : public Solver {
 public:
  LawlerSolver(const SolverConfig& config, ProblemKind kind, bool improved)
      : epsilon_(config.epsilon), kind_(kind), improved_(improved) {}

  [[nodiscard]] std::string name() const override {
    std::string base = kind_ == ProblemKind::kCycleMean ? "lawler" : "lawler_ratio";
    if (improved_) base += "_improved";
    return base;
  }
  [[nodiscard]] ProblemKind kind() const override { return kind_; }

  [[nodiscard]] CycleResult solve_scc(const Graph& g,
                                      const TileExec& tiles) const override {
    const ArcId m = g.num_arcs();
    CycleResult result;

    // Initial witness: any cycle; its exact value is an upper bound.
    std::vector<ArcId> witness = find_any_cycle(g);
    WideRational best = wide_cycle_value(g, kind_, witness);

    // Search interval. For the mean, [w_min, w_max]; for ratios the
    // mediant inequality gives the same with per-arc w/t when all
    // transits are positive, and the witness bounds it otherwise.
    double lo = static_cast<double>(g.min_weight());
    if (kind_ == ProblemKind::kCycleRatio) {
      bool all_positive = true;
      double arc_lo = 0.0;
      bool first = true;
      for (ArcId a = 0; a < m; ++a) {
        if (g.transit(a) <= 0) {
          all_positive = false;
          break;
        }
        const double r = static_cast<double>(g.weight(a)) / static_cast<double>(g.transit(a));
        arc_lo = first ? r : std::min(arc_lo, r);
        first = false;
      }
      lo = all_positive
               ? arc_lo
               : static_cast<double>(g.num_nodes()) *
                         std::min(0.0, static_cast<double>(g.min_weight())) -
                     1.0;
    }
    double hi = best.to_double();

    std::vector<double> cost(static_cast<std::size_t>(m));
    while (hi - lo > epsilon_) {
      ++result.counters.iterations;
      obs::emit(obs::EventKind::kIteration, "lawler.bisection",
                static_cast<std::int64_t>(result.counters.iterations));
      const double mid = lo + (hi - lo) / 2.0;
      // Guard against double-precision stall: at large weight
      // magnitudes the interval can stop shrinking before reaching
      // epsilon; the exact refinement below finishes the job.
      if (mid <= lo || mid >= hi) break;
      for (ArcId a = 0; a < m; ++a) {
        cost[static_cast<std::size_t>(a)] =
            static_cast<double>(g.weight(a)) - mid * static_cast<double>(arc_transit(g, kind_, a));
      }
      ++result.counters.feasibility_checks;
      obs::emit(obs::EventKind::kFeasibilityProbe, "lawler.probe",
                static_cast<std::int64_t>(result.counters.feasibility_checks));
      BellmanFordRealResult bf =
          bellman_ford_all_real(g, cost, &result.counters, tiles);
      if (bf.has_negative_cycle) {
        // lambda* < mid: the probed value is too large.
        const WideRational found = wide_cycle_value(g, kind_, bf.cycle);
        if (found < best) {
          best = found;
          witness = std::move(bf.cycle);
        }
        // Classic Lawler halves to the midpoint; the improved variant
        // jumps straight to the witness cycle's value.
        hi = improved_ ? std::min(mid, best.to_double()) : mid;
      } else {
        lo = mid;  // lambda* >= mid
      }
    }

    finish_exact(g, kind_, std::move(witness), result, tiles);
    return result;
  }

 private:
  double epsilon_;
  ProblemKind kind_;
  bool improved_;
};

}  // namespace

std::unique_ptr<Solver> make_lawler_solver(const SolverConfig& config) {
  return std::make_unique<LawlerSolver>(config, ProblemKind::kCycleMean, false);
}

std::unique_ptr<Solver> make_lawler_improved_solver(const SolverConfig& config) {
  return std::make_unique<LawlerSolver>(config, ProblemKind::kCycleMean, true);
}

std::unique_ptr<Solver> make_lawler_ratio_solver(const SolverConfig& config) {
  return std::make_unique<LawlerSolver>(config, ProblemKind::kCycleRatio, false);
}

}  // namespace mcr
