// HO: Hartmann & Orlin's early-terminating variant of Karp's algorithm
// (Hartmann & Orlin, Networks 1993; §2.2 of the paper).
//
// HO runs Karp's recurrence unchanged but notices that "many of the
// shortest paths computed by Karp's algorithm will contain cycles. If
// one of these cycles is critical, then the minimum cycle mean is
// found". Realization here:
//
//  * After each level k we walk the parent chain of the node with the
//    smallest D_k (O(k) with stamps; O(n^2) in total — the overhead the
//    paper quotes). The first cycle on that path becomes the candidate
//    mu = its exact mean, if it improves the incumbent.
//  * Criticality test: mu equals lambda* iff the potentials
//    pi(v) = min_{0<=j<=k} (D_j(v) - j*mu) are feasible for G_mu, i.e.
//    pi(v) <= pi(u) + w(u,v) - mu on every arc. The test is exact — all
//    quantities are scaled by den(mu) and checked in integers. It runs
//    when mu improves and at geometrically spaced checkpoints
//    (adding the O(m lg n) term of the paper's overhead bound).
//  * On success the algorithm exits at level k ("the number of
//    iterations" reported for HO, always < n, §4.3); otherwise level n
//    is reached and Karp's formula finishes exactly.
//
// The level sweep (with its winning in-arcs as the parent table), the
// formula and the int64/int128 width rule are the Karp family's shared
// engine (algo/karp_family.h), so HO's levels tile like Karp's.
//
// Space is Theta(n^2) like Karp's — the reason Table 2 shows N/A for HO
// at n >= 4096; the Karp2 rolling-row trick would apply here as well
// (§4.4), at the cost of a second pass.
#include <algorithm>
#include <vector>

#include "algo/algorithms.h"
#include "algo/karp_family.h"
#include "core/result.h"
#include "obs/obs.h"

namespace mcr {

namespace {

class HoSolver final : public Solver {
 public:
  explicit HoSolver(const SolverConfig&) {}

  [[nodiscard]] std::string name() const override { return "ho"; }
  [[nodiscard]] ProblemKind kind() const override { return ProblemKind::kCycleMean; }

  [[nodiscard]] CycleResult solve_scc(const Graph& g,
                                      const TileExec& tiles) const override {
    const int128 n = g.num_nodes();
    CycleResult result;
    // Table entries are walks of at most n arcs; the potentials scale
    // them by den(mu) <= n and subtract j*num(mu) with |num(mu)| <= n*max|w|,
    // so every stored value stays within 2n^2 * max|w|.
    with_width(2 * n * n * max_abs_weight(g), &result.counters, [&](auto zero) {
      solve_levels<decltype(zero)>(g, tiles, result);
    });
    return result;
  }

 private:
  template <typename D>
  static void solve_levels(const Graph& g, const TileExec& tiles, CycleResult& result) {
    const NodeId n = g.num_nodes();
    const std::size_t un = static_cast<std::size_t>(n);
    constexpr D kNone = detail::no_walk<D>();

    // D and parent tables, (n+1) rows.
    std::vector<D> d((un + 1) * un, kNone);
    std::vector<ArcId> parent((un + 1) * un, kInvalidArc);
    d[0] = D{0};

    // Incumbent candidate.
    bool have_mu = false;
    WideRational mu;
    std::vector<ArcId> witness;

    // Scaled potentials pi(v) = min_j (D_j(v)*den(mu) - j*num(mu)),
    // maintained incrementally; fully recomputed when mu changes.
    std::vector<D> pi(un, kNone);
    const auto fold_level = [&](NodeId j) {
      const D* row = d.data() + static_cast<std::size_t>(j) * un;
      for (std::size_t v = 0; v < un; ++v) {
        if (row[v] == kNone) continue;
        const D scaled =
            row[v] * static_cast<D>(mu.den) - static_cast<D>(j) * static_cast<D>(mu.num);
        if (scaled < pi[v]) pi[v] = scaled;
      }
    };

    std::vector<std::int32_t> walk_seen(un, -1);  // find_cycle_on_path scratch
    NodeId next_checkpoint = 4;

    detail::LevelSweep<D> sweep(g, tiles, result.counters);
    for (NodeId k = 1; k <= n; ++k) {
      D* cur = d.data() + static_cast<std::size_t>(k) * un;
      ArcId* cur_parent = parent.data() + static_cast<std::size_t>(k) * un;
      sweep.run_with_arc(cur - un, [&](NodeId v, D best, ArcId arc) {
        cur[static_cast<std::size_t>(v)] = best;
        cur_parent[static_cast<std::size_t>(v)] = arc;
      });
      result.counters.iterations = static_cast<std::uint64_t>(k);
      obs::emit(obs::EventKind::kIteration, "ho.level", k);
      if (k == n) break;  // level n only feeds Karp's formula

      // Look for a cycle on the shortest k-arc path to the argmin node
      // (the first node holding the level's minimum).
      const D* argmin = std::min_element(cur, cur + un);
      bool mu_changed = false;
      if (*argmin != kNone) {
        const std::vector<ArcId> cyc =
            find_cycle_on_path(g, parent, walk_seen, k, static_cast<NodeId>(argmin - cur));
        if (!cyc.empty()) {
          ++result.counters.cycle_evaluations;
          const WideRational cand_mu = wide_cycle_value(g, ProblemKind::kCycleMean, cyc);
          if (!have_mu || cand_mu < mu) {
            have_mu = true;
            mu = cand_mu;
            witness = cyc;
            mu_changed = true;
          }
        }
      }

      if (!have_mu) continue;

      if (mu_changed) {
        // Recompute scaled potentials from all levels 0..k.
        std::fill(pi.begin(), pi.end(), kNone);
        for (NodeId j = 0; j <= k; ++j) fold_level(j);
      } else {
        fold_level(k);  // fold in the new level only
      }

      // Criticality (feasibility) test at mu — exact, in scaled integers.
      if (mu_changed || k >= next_checkpoint) {
        if (k >= next_checkpoint) next_checkpoint *= 2;
        ++result.counters.feasibility_checks;
        obs::emit(obs::EventKind::kFeasibilityProbe, "ho.criticality_check", k);
        if (potentials_feasible(g, pi, mu)) {
          result.has_cycle = true;
          result.value = mu.to_rational();
          result.cycle = std::move(witness);
          return;  // early termination at level k
        }
      }
    }

    // No early exit: finish with Karp's formula (exact). Witness
    // recovery is left to the driver (extract_optimal_cycle).
    detail::KarpFormula<D> formula(std::span<const D>(d.data() + un * un, un), n);
    formula.fold_table(d.data(), 0, n);
    if (const std::optional<Rational> value = formula.value()) {
      result.has_cycle = true;
      result.value = *value;
    }
  }

  /// Walks the parent chain of (level k, node v) and returns the first
  /// cycle encountered (arcs in forward order), or empty. `seen` marks
  /// each visited node's position on the walk; it is all -1 on entry and
  /// is restored on return.
  static std::vector<ArcId> find_cycle_on_path(const Graph& g,
                                               const std::vector<ArcId>& parent,
                                               std::vector<std::int32_t>& seen, NodeId k,
                                               NodeId v) {
    std::vector<ArcId> walk;  // parent arcs, from v backwards
    std::vector<NodeId> visited;
    std::vector<ArcId> cycle;
    for (NodeId level = k;; --level) {
      std::int32_t& at = seen[static_cast<std::size_t>(v)];
      if (at >= 0) {  // walk[at..] lead backwards around the cycle
        cycle.assign(walk.rbegin(), walk.rend() - at);
        break;
      }
      at = static_cast<std::int32_t>(walk.size());
      visited.push_back(v);
      const ArcId a = level == 0 ? kInvalidArc
                                 : parent[static_cast<std::size_t>(level) * seen.size() +
                                          static_cast<std::size_t>(v)];
      if (a == kInvalidArc) break;
      walk.push_back(a);
      v = g.src(a);
    }
    for (const NodeId u : visited) seen[static_cast<std::size_t>(u)] = -1;
    return cycle;
  }

  /// Exact feasibility of the scaled potentials for G_mu.
  template <typename D>
  static bool potentials_feasible(const Graph& g, const std::vector<D>& pi,
                                  const WideRational& mu) {
    for (ArcId a = 0; a < g.num_arcs(); ++a) {
      const D pu = pi[static_cast<std::size_t>(g.src(a))];
      const D pv = pi[static_cast<std::size_t>(g.dst(a))];
      // A node not yet reached cannot be certified.
      if (pu == detail::no_walk<D>() || pv == detail::no_walk<D>()) return false;
      if (pv > pu + static_cast<D>(g.weight(a)) * static_cast<D>(mu.den) - static_cast<D>(mu.num)) {
        return false;
      }
    }
    return true;
  }
};

}  // namespace

std::unique_ptr<Solver> make_ho_solver(const SolverConfig& config) {
  return std::make_unique<HoSolver>(config);
}

}  // namespace mcr
