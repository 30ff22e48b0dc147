// Burns' algorithm (Burns 1991; §2.1 of the paper), mean and
// cost-to-time-ratio versions.
//
// Burns solves the linear program  max lambda  s.t.
// d(v) - d(u) <= w(u,v) - lambda * t(u,v)  by the primal-dual method.
// Each iteration: (1) collect the *critical* arcs — those whose
// constraint is tight; (2) if the critical subgraph contains a cycle,
// that cycle attains lambda and the algorithm stops; (3) otherwise the
// critical subgraph is a DAG — compute theta(v), the longest (transit-
// weighted) critical path ending at v, and raise lambda by the largest
// step delta that keeps all constraints satisfied under the reshaped
// potentials d'(v) = d(v) - theta(v)*delta:
//     delta = min over arcs with theta(u) + t - theta(v) > 0
//             of slack(u,v) / (theta(u) + t - theta(v)).
// Unlike KO/YTO, nothing is maintained incrementally — the critical
// subgraph is rebuilt from scratch every iteration, which the paper
// identifies as the reason Burns trails them in time despite doing
// fewer iterations (§4.5).
//
// Arithmetic: the (lambda, d) trajectory has unboundedly growing exact
// denominators, so the iteration runs in doubles; the final answer is
// snapped to the exact mean of the detected critical cycle and then
// certified/corrected by finish_exact, so the solver's results are
// exact like every other solver in the library.
#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "algo/algorithms.h"
#include "core/critical.h"
#include "core/result.h"
#include "graph/bellman_ford.h"
#include "graph/traversal.h"
#include "obs/obs.h"

namespace mcr {

namespace {

class BurnsSolver final : public Solver {
 public:
  BurnsSolver(const SolverConfig& config, ProblemKind kind)
      : epsilon_(config.epsilon), kind_(kind) {}

  [[nodiscard]] std::string name() const override {
    return kind_ == ProblemKind::kCycleMean ? "burns" : "burns_ratio";
  }
  [[nodiscard]] ProblemKind kind() const override { return kind_; }

  [[nodiscard]] CycleResult solve_scc(const Graph& g,
                                      const TileExec& /*tiles*/) const override {
    const NodeId n = g.num_nodes();
    const std::size_t un = static_cast<std::size_t>(n);
    const ArcId m = g.num_arcs();
    CycleResult result;

    // Feasible start: lambda0 low enough that d = 0 works, or Bellman-
    // Ford potentials when zero-transit negative arcs make d = 0
    // infeasible for every lambda.
    std::vector<double> d(un, 0.0);
    double lambda = std::numeric_limits<double>::infinity();
    bool need_bf_init = false;
    for (ArcId a = 0; a < m; ++a) {
      const std::int64_t t = arc_transit(g, kind_, a);
      if (t > 0) {
        lambda = std::min(lambda, static_cast<double>(g.weight(a)) /
                                      static_cast<double>(t));
      } else if (g.weight(a) < 0) {
        need_bf_init = true;
      }
    }
    if (need_bf_init) {
      // lambda* >= n * min(0, w_min); start just below that bound.
      lambda = static_cast<double>(n) *
                   std::min<double>(0.0, static_cast<double>(g.min_weight())) -
               1.0;
      std::vector<double> cost(static_cast<std::size_t>(m));
      for (ArcId a = 0; a < m; ++a) {
        cost[static_cast<std::size_t>(a)] = static_cast<double>(g.weight(a)) -
                                            lambda * static_cast<double>(arc_transit(g, kind_, a));
      }
      BellmanFordRealResult bf = bellman_ford_all_real(g, cost, &result.counters);
      d = std::move(bf.dist);
    }

    // Criticality tolerance scaled to the weight magnitude: float slack
    // computations carry rounding error ~ eps * |w| * n. Misclassifying
    // an arc costs only iterations (the final exact refinement repairs
    // the value), so a modest overestimate is safe.
    const double wscale = std::max(1.0, static_cast<double>(max_abs_weight(g)));
    const double tol = std::max(1e-8, 1e-13 * wscale * static_cast<double>(n));
    std::vector<ArcId> critical;
    std::vector<std::int64_t> theta(un);
    std::vector<std::int32_t> indeg(un);
    std::vector<NodeId> topo;
    std::vector<std::vector<ArcId>> crit_in(un);

    const std::int64_t max_iterations =
        static_cast<std::int64_t>(un) * static_cast<std::int64_t>(un) + 1000;
    std::vector<ArcId> cycle;

    for (std::int64_t iter = 0; iter < max_iterations; ++iter) {
      ++result.counters.iterations;
      obs::emit(obs::EventKind::kIteration, "burns.iteration", iter);

      // (1) Critical arcs at the current (d, lambda).
      critical.clear();
      for (ArcId a = 0; a < m; ++a) {
        ++result.counters.arc_scans;
        const double slack = d[static_cast<std::size_t>(g.src(a))] +
                             static_cast<double>(g.weight(a)) -
                             lambda * static_cast<double>(arc_transit(g, kind_, a)) -
                             d[static_cast<std::size_t>(g.dst(a))];
        if (slack <= tol) critical.push_back(a);
      }

      // (2) Cyclic critical subgraph => done.
      ++result.counters.feasibility_checks;
      obs::emit(obs::EventKind::kFeasibilityProbe, "burns.critical_cycle_check", iter);
      cycle = find_any_cycle(g, critical);
      if (!cycle.empty()) break;

      // (3) theta = longest transit-weighted critical path (critical
      // subgraph is a DAG here). Kahn order over critical arcs.
      std::fill(theta.begin(), theta.end(), 0);
      std::fill(indeg.begin(), indeg.end(), 0);
      for (auto& lst : crit_in) lst.clear();
      for (const ArcId a : critical) {
        ++indeg[static_cast<std::size_t>(g.dst(a))];
        crit_in[static_cast<std::size_t>(g.dst(a))].push_back(a);
      }
      topo.clear();
      for (NodeId v = 0; v < n; ++v) {
        if (indeg[static_cast<std::size_t>(v)] == 0) topo.push_back(v);
      }
      // Process nodes; only out-arcs that are critical shrink indegrees.
      std::vector<std::vector<ArcId>> crit_out(un);
      for (const ArcId a : critical) {
        crit_out[static_cast<std::size_t>(g.src(a))].push_back(a);
      }
      for (std::size_t head = 0; head < topo.size(); ++head) {
        const NodeId u = topo[head];
        ++result.counters.node_visits;
        for (const ArcId a : crit_out[static_cast<std::size_t>(u)]) {
          const NodeId v = g.dst(a);
          theta[static_cast<std::size_t>(v)] =
              std::max(theta[static_cast<std::size_t>(v)],
                       theta[static_cast<std::size_t>(u)] + arc_transit(g, kind_, a));
          if (--indeg[static_cast<std::size_t>(v)] == 0) topo.push_back(v);
        }
      }

      // (4) Largest feasible step.
      double delta = std::numeric_limits<double>::infinity();
      for (ArcId a = 0; a < m; ++a) {
        const double coef = static_cast<double>(theta[static_cast<std::size_t>(g.src(a))] +
                                                arc_transit(g, kind_, a) -
                                                theta[static_cast<std::size_t>(g.dst(a))]);
        if (coef <= 0) continue;
        const double slack = d[static_cast<std::size_t>(g.src(a))] +
                             static_cast<double>(g.weight(a)) -
                             lambda * static_cast<double>(arc_transit(g, kind_, a)) -
                             d[static_cast<std::size_t>(g.dst(a))];
        delta = std::min(delta, std::max(0.0, slack) / coef);
      }
      if (!std::isfinite(delta)) break;  // numerically stuck; refine below

      for (NodeId v = 0; v < n; ++v) {
        d[static_cast<std::size_t>(v)] -=
            static_cast<double>(theta[static_cast<std::size_t>(v)]) * delta;
      }
      lambda += delta;
      static_cast<void>(epsilon_);
    }

    // An empty cycle (iteration cap or a degenerate step) starts the
    // exact finish from any real cycle.
    finish_exact(g, kind_, std::move(cycle), result);
    return result;
  }

 private:
  double epsilon_;
  ProblemKind kind_;
};

}  // namespace

std::unique_ptr<Solver> make_burns_solver(const SolverConfig& config) {
  return std::make_unique<BurnsSolver>(config, ProblemKind::kCycleMean);
}

std::unique_ptr<Solver> make_burns_ratio_solver(const SolverConfig& config) {
  return std::make_unique<BurnsSolver>(config, ProblemKind::kCycleRatio);
}

}  // namespace mcr
