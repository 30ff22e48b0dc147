// Howard's minimum mean cycle algorithm — the improved version of
// Figure 1 of the paper (policy iteration; Cochet-Terrasson, Cohen,
// Gaubert, McGettrick & Quadrat 1997).
//
// Each iteration costs Theta(m): (1) evaluate the *policy graph* G_pi
// (every node keeps exactly one out-arc), whose components each contain
// exactly one cycle; take lambda = the smallest policy-cycle mean;
// (2) recompute node distances by a reverse BFS from a node s on that
// cycle; (3) improve: for every arc (u,v), if routing u through v
// lowers d(u), adopt it into the policy. Stop when no improvement
// exceeds the precision threshold.
//
// Implementation note (exactness): the paper's Figure 1 works with
// floating-point distances and a precision epsilon. Here lambda is kept
// as an exact rational num/den and distances as integers at scale den:
// an arc a = (u,v) costs c(a) = w(a)*den - num*t(a), so every update is
// exact integer arithmetic and an improvement of delta > 0 is detected
// exactly. Step (2) gives *every* node a fresh distance at that scale,
// from d(s) = 0: after the reverse BFS over policy arcs it keeps going
// over the in-arcs of the component until all n nodes are reached, and
// a node first reached that way takes that arc as its policy (the
// "connect all other nodes" step of LEMON's HowardMmc). No distance is
// ever stale, so nothing is rescaled between iterations.
//
// Termination: after step (2) every policy arc is tight, d(u) = d(v) +
// c(a) (the arc out of s too, since lambda's cycle has c-sum 0), and the
// policy graph has one cycle, lambda's. Step (3) adopts an arc only when
// d(u) > d(v) + c(a). Summing over any cycle of the new policy, the d
// terms cancel, so its c-sum is minus the total improvement: a cycle
// through an adopted arc has c-sum < 0, i.e. mean < lambda. Hence the
// next lambda is either smaller, or lambda's cycle survives as the only
// cycle; then every distance measured to a fixed node of that cycle
// weakly decreases and an adopting node's strictly, so no policy
// repeats, and there are finitely many policies. No tie rule for the
// anchor cycle is needed. With the default (tiny) epsilon this makes
// Howard exact while preserving the Figure-1 structure; a larger
// epsilon reproduces the paper's approximate ("not much improvement ->
// exit") semantics, which the bench_ablation_howard harness measures.
//
// Loop-structure note: the improve step is a snapshot sweep — every
// arc (u,v) is judged against the distances step (2) left, and each
// node adopts its best improving out-arc (ties to the lowest arc id).
// That per-node min-fold runs through the tiled engine
// (graph/arc_tiles.h), so one big SCC's improve step spreads over the
// worker pool with bit-identical results for any tile size and thread
// count. The policy-cycle evaluation and step (2) stay serial (pointer
// chases); the reverse-policy adjacency the BFS walks first is flat CSR
// arrays rebuilt by counting sort each iteration, not per-node vectors.
#include <algorithm>
#include <atomic>
#include <limits>
#include <vector>

#include "algo/algorithms.h"
#include "core/critical.h"
#include "core/result.h"
#include "obs/obs.h"
#include "support/int128.h"
#include "support/int_range.h"

namespace mcr {
namespace {

class HowardSolver final : public Solver {
 public:
  HowardSolver(const SolverConfig& config, ProblemKind kind, bool improved_init = true)
      : epsilon_(config.epsilon), kind_(kind), improved_init_(improved_init) {}

  [[nodiscard]] std::string name() const override {
    std::string base = kind_ == ProblemKind::kCycleMean ? "howard" : "howard_ratio";
    if (!improved_init_) base += "_naive_init";
    return base;
  }
  [[nodiscard]] ProblemKind kind() const override { return kind_; }

  [[nodiscard]] CycleResult solve_scc(const Graph& g,
                                      const TileExec& tiles) const override {
    const NodeId n = g.num_nodes();
    const std::size_t un = static_cast<std::size_t>(n);
    CycleResult result;

    // Initial policy: the out-arc with the smallest weight (Fig. 1,
    // lines 1-4); the naive-init ablation variant just takes the first
    // out-arc instead. The scan also finds the largest transit, for the
    // range bound.
    std::vector<ArcId> policy(un, kInvalidArc);
    std::int64_t max_t = 1;
    for (NodeId u = 0; u < n; ++u) {
      ArcId pick = g.out_arcs(u).front();
      for (const ArcId a : g.out_arcs(u)) {
        if (improved_init_ && g.weight(a) < g.weight(pick)) pick = a;
        max_t = std::max(max_t, arc_transit(g, kind_, a));
      }
      policy[static_cast<std::size_t>(u)] = pick;
    }

    // The range rule (support/int_range.h): lambda is a simple policy
    // cycle's ratio, so |num| <= cycle_w = n*max|w| and den <= cycle_t
    // = n*max t (the cycle sums themselves stay within both). Then
    // |c(a)| <= 2*max|w|*cycle_t, a distance sums at most n-1 arcs of a
    // BFS tree, and an improve candidate adds one arc to a distance:
    // every stored value is within 2*cycle_w*cycle_t. Both factors are
    // checked first, so the int128 product cannot overflow.
    const int128 cycle_w = n * max_abs_weight(g);
    const int128 cycle_t = n * int128{max_t};
    if (!fits_int64(cycle_w) || !fits_int64(cycle_t) || !fits_int64(2 * cycle_w * cycle_t)) {
      ++result.counters.numeric_promotions;
      finish_exact(g, kind_, {}, result, tiles);
      return result;
    }

    // Scratch for policy-cycle evaluation and the distance refresh. The
    // reverse-policy adjacency is flat CSR (offsets + node array),
    // rebuilt by counting sort each iteration — cheaper to refill and
    // walk than n per-node vectors.
    std::vector<std::int32_t> visit_mark(un, -1);
    std::vector<std::int32_t> chain_pos(un, 0);
    std::vector<NodeId> chain;
    std::vector<std::int32_t> rev_first(un + 1, 0);
    std::vector<std::int32_t> rev_cursor(un, 0);
    std::vector<NodeId> rev_nodes(un, kInvalidNode);
    std::vector<std::int32_t> reached(un, -1);  // == iter: has a distance
    std::vector<NodeId> bfs;
    std::vector<std::int64_t> dist(un, 0);

    const std::span<const ArcId> out_ids = g.out_arc_ids();
    TiledSweep sweep(g.out_first(), tiles);
    struct Cand {
      std::int64_t val;
      std::int32_t pos;
      bool operator<(const Cand& o) const {
        if (val != o.val) return val < o.val;
        return pos < o.pos;
      }
    };
    constexpr Cand kNoCand{std::numeric_limits<std::int64_t>::max(),
                           std::numeric_limits<std::int32_t>::max()};

    Rational lambda;
    std::vector<ArcId> best_cycle;
    for (std::int32_t iter = 0;; ++iter) {
      ++result.counters.iterations;
      obs::emit(obs::EventKind::kIteration, "howard.iteration", iter);

      // --- Evaluate: find the minimum mean (ratio) cycle of G_pi. ---
      bool have_lambda = false;
      for (NodeId start = 0; start < n; ++start) {
        if (visit_mark[static_cast<std::size_t>(start)] >= 0 &&
            visit_mark[static_cast<std::size_t>(start)] >= 2 * iter) {
          continue;  // already classified this iteration
        }
        chain.clear();
        NodeId u = start;
        // Follow the policy until we hit something visited. Marks:
        // 2*iter = on current chain, 2*iter+1 = classified done.
        while (visit_mark[static_cast<std::size_t>(u)] < 2 * iter) {
          visit_mark[static_cast<std::size_t>(u)] = 2 * iter;
          chain_pos[static_cast<std::size_t>(u)] = static_cast<std::int32_t>(chain.size());
          chain.push_back(u);
          u = g.dst(policy[static_cast<std::size_t>(u)]);
        }
        if (visit_mark[static_cast<std::size_t>(u)] == 2 * iter) {
          // New policy cycle found, starting at u on the current chain.
          ++result.counters.cycle_evaluations;
          std::int64_t w = 0;
          std::int64_t t = 0;
          std::vector<ArcId> cyc;
          for (std::size_t i = static_cast<std::size_t>(chain_pos[static_cast<std::size_t>(u)]);
               i < chain.size(); ++i) {
            const ArcId a = policy[static_cast<std::size_t>(chain[i])];
            cyc.push_back(a);
            w += g.weight(a);
            t += arc_transit(g, kind_, a);
          }
          const Rational mean(w, t);
          if (!have_lambda || mean < lambda) {
            have_lambda = true;
            lambda = mean;
            best_cycle = std::move(cyc);
          }
        }
        for (const NodeId v : chain) {
          visit_mark[static_cast<std::size_t>(v)] = 2 * iter + 1;
        }
      }

      // --- Distances at scale den(lambda), from d(s) = 0 (Fig. 1, 10-12). ---
      const std::int64_t den = lambda.den();
      const std::int64_t num = lambda.num();
      const auto cost = [&](ArcId a) {
        return g.weight(a) * den - num * arc_transit(g, kind_, a);
      };
      // Counting sort the reverse-policy adjacency into the flat CSR
      // scratch; ascending-v fill keeps the per-target order (and thus
      // the BFS visit order) identical to a per-node push_back build.
      const NodeId s = g.src(best_cycle.front());
      std::fill(rev_first.begin(), rev_first.end(), 0);
      for (NodeId v = 0; v < n; ++v) {
        if (v != s) {
          ++rev_first[static_cast<std::size_t>(
                          g.dst(policy[static_cast<std::size_t>(v)])) +
                      1];
        }
      }
      for (std::size_t i = 0; i < un; ++i) rev_first[i + 1] += rev_first[i];
      std::copy(rev_first.begin(), rev_first.end() - 1, rev_cursor.begin());
      for (NodeId v = 0; v < n; ++v) {
        if (v != s) {
          const auto t = static_cast<std::size_t>(
              g.dst(policy[static_cast<std::size_t>(v)]));
          rev_nodes[static_cast<std::size_t>(rev_cursor[t]++)] = v;
        }
      }
      bfs.clear();
      bfs.push_back(s);
      reached[static_cast<std::size_t>(s)] = iter;
      dist[static_cast<std::size_t>(s)] = 0;
      for (std::size_t head = 0; head < bfs.size(); ++head) {
        const NodeId v = bfs[head];
        ++result.counters.node_visits;
        for (std::int32_t i = rev_first[static_cast<std::size_t>(v)];
             i < rev_first[static_cast<std::size_t>(v) + 1]; ++i) {
          const NodeId u = rev_nodes[static_cast<std::size_t>(i)];
          reached[static_cast<std::size_t>(u)] = iter;
          dist[static_cast<std::size_t>(u)] =
              dist[static_cast<std::size_t>(v)] + cost(policy[static_cast<std::size_t>(u)]);
          bfs.push_back(u);
        }
      }
      // Connect the other policy components: a reverse BFS over all
      // in-arcs, from the front of the queue, until every node of the
      // (strongly connected) component has a distance.
      for (std::size_t head = 0; bfs.size() < un && head < bfs.size(); ++head) {
        const NodeId v = bfs[head];
        ++result.counters.node_visits;
        result.counters.arc_scans += g.in_arcs(v).size();
        for (const ArcId a : g.in_arcs(v)) {
          const NodeId u = g.src(a);
          if (reached[static_cast<std::size_t>(u)] == iter) continue;
          reached[static_cast<std::size_t>(u)] = iter;
          policy[static_cast<std::size_t>(u)] = a;
          dist[static_cast<std::size_t>(u)] = dist[static_cast<std::size_t>(v)] + cost(a);
          bfs.push_back(u);
        }
      }

      // --- Improve (Fig. 1, 13-18). ---
      // An improvement smaller than epsilon (scaled) does not count as
      // progress; with integer-scaled distances and a tiny epsilon the
      // effective threshold is delta >= 1, which makes the solver exact.
      const auto eps_scaled = static_cast<std::int64_t>(epsilon_ * static_cast<double>(den));
      // Snapshot sweep over the out-arc CSR: each node folds the best
      // candidate among its out-arcs against the refreshed distances
      // and adopts it when strictly better. The sweep writes only the
      // policy (the next refresh recomputes every distance), and the
      // flags and counts are order-free folds, so it is deterministic
      // for any tile size and thread count.
      std::atomic<bool> improved{false};
      std::atomic<std::int64_t> adopted{0};
      sweep.run(
          kNoCand,
          [&](std::int32_t p) {
            const ArcId a = out_ids[static_cast<std::size_t>(p)];
            return Cand{dist[static_cast<std::size_t>(g.dst(a))] + cost(a), p};
          },
          [&](NodeId u, const Cand& best) {
            if (best.pos == std::numeric_limits<std::int32_t>::max()) return;
            const std::int64_t delta = dist[static_cast<std::size_t>(u)] - best.val;
            if (delta > 0) {
              policy[static_cast<std::size_t>(u)] =
                  out_ids[static_cast<std::size_t>(best.pos)];
              adopted.fetch_add(1, std::memory_order_relaxed);
              if (delta > eps_scaled) {
                improved.store(true, std::memory_order_relaxed);
              }
            }
          });
      result.counters.arc_scans += static_cast<std::uint64_t>(sweep.positions());
      result.counters.relaxations +=
          static_cast<std::uint64_t>(adopted.load(std::memory_order_relaxed));
      obs::emit(obs::EventKind::kPolicyImprove, "howard.policy_improve",
                adopted.load(std::memory_order_relaxed));
      if (!improved.load(std::memory_order_relaxed)) break;

      // Safety valve: policy iteration is only pseudo-polynomial (the
      // paper proves O(n m alpha) / O(n^2 m (wmax-wmin)/eps) bounds). If
      // an adversarial instance stalls it, finish exactly by cycle
      // canceling: repeatedly replace lambda by the mean of any cycle
      // negative in G_lambda until none exists. Never triggers on the
      // paper's workloads; counted in feasibility_checks when it does.
      if (iter > iteration_cap(n, g.num_arcs())) {
        obs::emit(obs::EventKind::kSafetyValve, "howard.iteration_cap", iter);
        finish_exact(g, kind_, std::move(best_cycle), result, tiles);
        return result;
      }
    }

    result.has_cycle = true;
    result.value = lambda;
    result.cycle = std::move(best_cycle);
    return result;
  }

 private:
  static std::int32_t iteration_cap(NodeId n, ArcId m) {
    return 1000 + 20 * std::max<std::int32_t>(n, m);
  }

  double epsilon_;
  ProblemKind kind_;
  bool improved_init_;
};

}  // namespace

std::unique_ptr<Solver> make_howard_solver(const SolverConfig& config) {
  return std::make_unique<HowardSolver>(config, ProblemKind::kCycleMean);
}

std::unique_ptr<Solver> make_howard_naive_init_solver(const SolverConfig& config) {
  return std::make_unique<HowardSolver>(config, ProblemKind::kCycleMean, false);
}

std::unique_ptr<Solver> make_howard_ratio_solver(const SolverConfig& config) {
  return std::make_unique<HowardSolver>(config, ProblemKind::kCycleRatio);
}

}  // namespace mcr
