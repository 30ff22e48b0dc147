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
// as an exact rational and distances are kept as integers scaled by a
// running common denominator cur_den, maintained as a multiple of
// den(lambda) — every update d(u) = d(v) + w - lambda is then exact
// integer arithmetic, improvements of delta > 0 are detected exactly,
// and termination follows from strict integer decrease. When a new
// lambda's denominator does not divide cur_den, the scale grows to
// lcm(cur_den, den(lambda)) and every distance is multiplied by the
// exact integer factor — never rescaled by a truncating division, which
// would perturb stale distances (nodes off the chosen policy cycle's
// reverse-BFS tree) and void the strict-decrease argument. With the
// default (tiny) epsilon this makes Howard exact while preserving the
// Figure-1 structure; a larger epsilon reproduces the paper's
// approximate ("not much improvement -> exit") semantics, which the
// bench_ablation_howard harness measures.
//
// Loop-structure note: the improve step is a snapshot sweep — every
// arc (u,v) is judged against the distances as they stood after the
// reverse BFS, and each node adopts its best improving out-arc (ties
// to the lowest arc id). That per-node min-fold runs through the tiled
// engine (graph/arc_tiles.h), so one big SCC's improve step spreads
// over the worker pool with bit-identical results for any tile size
// and thread count. The policy-cycle evaluation and the reverse BFS
// stay serial (pointer chases, Theta(n) against the sweep's Theta(m));
// the reverse-policy adjacency they walk is flat CSR arrays rebuilt by
// counting sort each iteration, not per-node vectors.
#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <limits>
#include <numeric>
#include <vector>

#include "algo/algorithms.h"
#include "core/critical.h"
#include "core/result.h"
#include "obs/obs.h"
#include "support/int128.h"
#include "support/int_range.h"

namespace mcr {
namespace {

// The largest distance scale policy iteration grows to; past it the
// solve finishes by cycle canceling (the scale-overflow valve).
constexpr std::int64_t kDenLimit = std::int64_t{1} << 31;

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
    // lines 1-4). d(u) = weight of that arc, scaled denominator 1. The
    // naive-init ablation variant just takes the first out-arc instead.
    // The scan also finds the largest transit, for the range bound.
    std::vector<ArcId> policy(un, kInvalidArc);
    std::vector<std::int64_t> dist(un, 0);
    std::int64_t max_t = 1;
    for (NodeId u = 0; u < n; ++u) {
      std::int64_t best = std::numeric_limits<std::int64_t>::max();
      for (const ArcId a : g.out_arcs(u)) {
        if (g.weight(a) < best) {
          best = g.weight(a);
          if (improved_init_) policy[static_cast<std::size_t>(u)] = a;
        }
        if (!improved_init_ && policy[static_cast<std::size_t>(u)] == kInvalidArc) {
          policy[static_cast<std::size_t>(u)] = a;
        }
        max_t = std::max(max_t, arc_transit(g, kind_, a));
      }
      dist[static_cast<std::size_t>(u)] =
          improved_init_ ? best : g.weight(policy[static_cast<std::size_t>(u)]);
    }
    std::int64_t cur_den = 1;

    // The range rule (support/int_range.h): a policy cycle's sums stay
    // within n * max(max|w|, max t); the distances, |d(u)| <= dist_bound,
    // are checked per iteration below.
    const int128 max_w = max_abs_weight(g);
    if (!fits_int64(n * std::max(max_w, int128{max_t}))) {
      ++result.counters.numeric_promotions;
      finish_exact(g, kind_, {}, result, tiles);
      return result;
    }
    int128 dist_bound = max_w;

    // Scratch for policy-cycle evaluation and the reverse BFS. The
    // reverse-policy adjacency is flat CSR (offsets + node array),
    // rebuilt by counting sort each iteration — cheaper to refill and
    // walk than n per-node vectors.
    std::vector<std::int32_t> visit_mark(un, -1);
    std::vector<std::int32_t> chain_pos(un, 0);
    std::vector<NodeId> chain;
    std::vector<std::int32_t> rev_first(un + 1, 0);
    std::vector<std::int32_t> rev_cursor(un, 0);
    std::vector<NodeId> rev_nodes(un, kInvalidNode);
    std::vector<NodeId> bfs;
    std::vector<std::int64_t> dist_prev(un, 0);

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
    // The safety valve: cycle canceling from the incumbent policy cycle.
    const auto valve = [&](const char* reason, std::int32_t iter) {
      obs::emit(obs::EventKind::kSafetyValve, reason, iter);
      finish_exact(g, kind_, std::move(best_cycle), result, tiles);
    };

    for (std::int32_t iter = 0;; ++iter) {
      ++result.counters.iterations;
      obs::emit(obs::EventKind::kIteration, "howard.iteration", iter);

      // --- Evaluate: find the minimum mean (ratio) cycle of G_pi. ---
      bool have_lambda = false;
      Rational new_lambda;
      std::vector<ArcId> new_cycle;
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
          if (!have_lambda || mean < new_lambda) {
            have_lambda = true;
            new_lambda = mean;
            new_cycle = std::move(cyc);
          }
        }
        for (const NodeId v : chain) {
          visit_mark[static_cast<std::size_t>(v)] = 2 * iter + 1;
        }
      }

      lambda = new_lambda;
      best_cycle = new_cycle;

      // --- Bring lambda to the distance scale, exactly. ---
      // cur_den is kept a multiple of den(lambda): when it is not, grow
      // the scale to lcm(cur_den, den(lambda)) so every distance is
      // multiplied by an exact integer factor. Rescaling by a truncating
      // dist * den / cur_den division here would round stale distances
      // (nodes whose tree leads to a non-optimal policy cycle, which the
      // reverse BFS below does not refresh) toward zero and void the
      // strict-decrease termination argument.
      const std::int64_t factor = lambda.den() / std::gcd(cur_den, lambda.den());
      const int128 den = static_cast<int128>(cur_den) * factor;
      if (den > kDenLimit) {
        // Out of 64-bit headroom: finish exactly by cycle canceling,
        // like the iteration safety valve below. Not rare: measured on
        // 16% of howard_ratio solves of sprand graphs at n = 512,
        // m = 2048, transit U[1, 10], and more at larger n (test
        // Howard.ScaleOverflowValveStaysExact keeps it covered).
        valve("howard.scale_overflow", iter);
        return result;
      }
      // One arc moves a distance by |w*den - lam_num*t| <= step; the
      // reverse BFS hangs a node at most n-1 arcs below a rescaled
      // distance and the improve step adds one arc, so all stored values
      // stay within dist_bound*factor + n*step. (den <= 2^31 and max|w|,
      // max t < 2^61, so capping |lam_num| keeps the products in int128.)
      const int128 wide_lam_num = static_cast<int128>(lambda.num()) * (den / lambda.den());
      const int128 step =
          max_w * den +
          std::min(wide_lam_num < 0 ? -wide_lam_num : wide_lam_num, int128{kInt64Limit}) * max_t;
      if (!fits_int64(step) || !fits_int64(dist_bound * factor + n * step)) {
        ++result.counters.numeric_promotions;
        valve("howard.scale_overflow", iter);
        return result;
      }
      if (factor != 1) {
        for (auto& d : dist) d *= factor;
        cur_den = static_cast<std::int64_t>(den);
        dist_bound *= factor;
      }
      const auto lam_num = static_cast<std::int64_t>(wide_lam_num);

      // --- Reverse BFS from s on the policy graph (Fig. 1, 10-12). ---
      // Counting sort the reverse-policy adjacency into the flat CSR
      // scratch; ascending-v fill keeps the per-target order (and thus
      // the BFS visit order) identical to a per-node push_back build.
      const NodeId s = g.src(new_cycle.front());
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
      for (std::size_t head = 0; head < bfs.size(); ++head) {
        const NodeId v = bfs[head];
        ++result.counters.node_visits;
        for (std::int32_t i = rev_first[static_cast<std::size_t>(v)];
             i < rev_first[static_cast<std::size_t>(v) + 1]; ++i) {
          const NodeId u = rev_nodes[static_cast<std::size_t>(i)];
          const ArcId a = policy[static_cast<std::size_t>(u)];
          dist[static_cast<std::size_t>(u)] =
              dist[static_cast<std::size_t>(v)] + g.weight(a) * cur_den -
              lam_num * arc_transit(g, kind_, a);
          bfs.push_back(u);
        }
      }

      // --- Improve (Fig. 1, 13-18). ---
      // An improvement smaller than epsilon (scaled) does not count as
      // progress; with integer-scaled distances and a tiny epsilon the
      // effective threshold is delta >= 1, which makes the solver exact.
      const std::int64_t eps_scaled =
          static_cast<std::int64_t>(epsilon_ * static_cast<double>(cur_den));
      // Snapshot sweep over the out-arc CSR: each node folds the best
      // candidate among its out-arcs against the post-BFS distances
      // (dist_prev) and adopts it when strictly better. Improvement
      // flags and counts are order-free folds, so the tiled sweep is
      // deterministic for any tile size and thread count.
      // An adopted candidate is one arc past a post-BFS distance, so the
      // largest of those plus step bounds the next iteration's distances.
      std::int64_t max_dist = 0;
      for (std::size_t i = 0; i < un; ++i) {
        dist_prev[i] = dist[i];
        max_dist = std::max(max_dist, std::abs(dist[i]));
      }
      dist_bound = max_dist + step;
      std::atomic<bool> improved{false};
      std::atomic<std::int64_t> adopted{0};
      std::atomic<std::uint64_t> relaxed{0};
      sweep.run(
          kNoCand,
          [&](std::int32_t p) {
            const ArcId a = out_ids[static_cast<std::size_t>(p)];
            return Cand{dist_prev[static_cast<std::size_t>(g.dst(a))] +
                            g.weight(a) * cur_den - lam_num * arc_transit(g, kind_, a),
                        p};
          },
          [&](NodeId u, const Cand& best) {
            if (best.pos == std::numeric_limits<std::int32_t>::max()) return;
            const std::int64_t delta =
                dist_prev[static_cast<std::size_t>(u)] - best.val;
            if (delta > 0) {
              dist[static_cast<std::size_t>(u)] = best.val;
              policy[static_cast<std::size_t>(u)] =
                  out_ids[static_cast<std::size_t>(best.pos)];
              relaxed.fetch_add(1, std::memory_order_relaxed);
              adopted.fetch_add(1, std::memory_order_relaxed);
              if (delta > eps_scaled) {
                improved.store(true, std::memory_order_relaxed);
              }
            }
          });
      result.counters.arc_scans += static_cast<std::uint64_t>(sweep.positions());
      result.counters.relaxations += relaxed.load(std::memory_order_relaxed);
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
        valve("howard.iteration_cap", iter);
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
