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
// The recurrence normally runs in int64 with overflow-checked sums
// (support/checked.h); if a path sum leaves the representable band the
// whole table is re-filled in int128 (counted as a numeric promotion)
// instead of reporting a wrapped mean. The witness cycle is recovered
// generically from the critical subgraph at lambda* (core/critical.h),
// keeping this implementation exactly the three simple nested loops
// whose compiler-friendliness the paper remarks on (§4.5).
//
// Both hot phases tile (graph/arc_tiles.h): each level of the table
// fill is a snapshot sweep — level k reads only level k-1, so tiling it
// over in-arc CSR ranges is trivially deterministic — and the final
// min_v max_k extraction splits into node chunks whose per-chunk
// minima merge in chunk order (first node wins ties, exactly like the
// serial scan). Results are bit-identical for any tile size and thread
// count.
#include <limits>
#include <optional>
#include <vector>

#include "algo/algorithms.h"
#include "core/result.h"
#include "obs/obs.h"
#include "support/checked.h"
#include "support/int128.h"
#include "support/thread_pool.h"

namespace mcr {

namespace {

constexpr std::int64_t kInf = std::numeric_limits<std::int64_t>::max() / 4;
// Any |d| in the wide table is bounded by n * max|w| < 2^95; this
// sentinel is far above that and still leaves int128 headroom.
constexpr int128 kInfWide = static_cast<int128>(1) << 100;

/// Sum with promotion semantics: the narrow (int64) path throws
/// NumericOverflow both on a genuine wrap and when the sum strays into
/// the sentinel band [kInf, +inf) / (-inf, -kInf], where it could no
/// longer be told apart from "no path".
std::int64_t dist_add(std::int64_t a, std::int64_t b) {
  const std::int64_t s = checked_add(a, b);
  if (s >= kInf || s <= -kInf) {
    throw NumericOverflow("karp distance table (sum reached sentinel band)");
  }
  return s;
}
int128 dist_add(int128 a, int128 b) { return a + b; }

std::int64_t dist_sub(std::int64_t a, std::int64_t b) { return checked_sub(a, b); }
int128 dist_sub(int128 a, int128 b) { return a - b; }

/// Fills D and extracts lambda* = min_v max_k (D_n(v)-D_k(v))/(n-k).
/// Fractions are compared raw (128-bit cross multiplication); in the
/// wide instantiation |num| < 2^95 and den <= n, so the products stay
/// within int128. Returns nullopt when no node has an n-arc path
/// (cannot happen for a strongly connected component per contract).
template <typename D>
std::optional<std::pair<int128, int128>> karp_table(const Graph& g, D inf,
                                                    OpCounters& counters,
                                                    const TileExec& tiles) {
  const NodeId n = g.num_nodes();
  const std::size_t un = static_cast<std::size_t>(n);

  // D[k][v], k = 0..n. Row-major in one allocation.
  std::vector<D> d((un + 1) * un, inf);
  d[0] = D{0};  // D_0(source = node 0)

  const std::span<const ArcId> in_ids = g.in_arc_ids();
  TiledSweep sweep(g.in_first(), tiles);
  for (NodeId k = 1; k <= n; ++k) {
    const D* prev = d.data() + static_cast<std::size_t>(k - 1) * un;
    D* cur = d.data() + static_cast<std::size_t>(k) * un;
    sweep.run(
        inf,
        [&](std::int32_t p) -> D {
          const ArcId a = in_ids[static_cast<std::size_t>(p)];
          const D du = prev[static_cast<std::size_t>(g.src(a))];
          if (du == inf) return inf;
          return dist_add(du, D{g.weight(a)});
        },
        [&](NodeId v, const D& best) { cur[static_cast<std::size_t>(v)] = best; });
    counters.arc_scans += static_cast<std::uint64_t>(sweep.positions());
  }

  // Extraction: per-node max over k, global min over v. Nodes are
  // independent, so chunk them; the chunk minima then merge in chunk
  // (= ascending node) order with the same strict comparison, which
  // reproduces the serial first-node-wins tie-break for any chunking.
  struct ChunkBest {
    bool found = false;
    int128 num = 0;
    int128 den = 1;
  };
  ThreadPool* pool = tiles.enabled() ? tiles.pool : nullptr;
  const std::size_t chunks =
      pool != nullptr
          ? std::min<std::size_t>(un, 8 * static_cast<std::size_t>(pool->size()))
          : std::size_t{1};
  const std::size_t chunk_nodes = chunks ? (un + chunks - 1) / chunks : 0;
  std::vector<ChunkBest> chunk_best(chunks);
  const std::size_t last = static_cast<std::size_t>(n) * un;
  run_indexed(pool, chunks, [&](std::size_t c) {
    ChunkBest best;
    const NodeId lo = static_cast<NodeId>(c * chunk_nodes);
    const NodeId hi = static_cast<NodeId>(std::min(un, (c + 1) * chunk_nodes));
    for (NodeId v = lo; v < hi; ++v) {
      const D dn = d[last + static_cast<std::size_t>(v)];
      if (dn == inf) continue;  // no n-arc path to v
      bool have_max = false;
      int128 vmax_num = 0;
      int128 vmax_den = 1;
      for (NodeId k = 0; k < n; ++k) {
        const D dk = d[static_cast<std::size_t>(k) * un + static_cast<std::size_t>(v)];
        if (dk == inf) continue;
        const int128 num = static_cast<int128>(dist_sub(dn, dk));
        const int128 den = n - k;
        if (!have_max || num * vmax_den > vmax_num * den) {
          vmax_num = num;
          vmax_den = den;
          have_max = true;
        }
      }
      // In a strongly connected graph D_k(v) is finite for some k < n.
      if (have_max &&
          (!best.found || vmax_num * best.den < best.num * vmax_den)) {
        best.num = vmax_num;
        best.den = vmax_den;
        best.found = true;
      }
    }
    chunk_best[c] = best;
  });
  bool found = false;
  int128 best_num = 0;
  int128 best_den = 1;
  for (const ChunkBest& cb : chunk_best) {
    if (!cb.found) continue;
    if (!found || cb.num * best_den < best_num * cb.den) {
      best_num = cb.num;
      best_den = cb.den;
      found = true;
    }
  }
  if (!found) return std::nullopt;
  return std::make_pair(best_num, best_den);
}

class KarpSolver final : public Solver {
 public:
  explicit KarpSolver(const SolverConfig&) {}

  [[nodiscard]] std::string name() const override { return "karp"; }
  [[nodiscard]] ProblemKind kind() const override { return ProblemKind::kCycleMean; }

  [[nodiscard]] CycleResult solve_scc(const Graph& g) const override {
    return solve_scc(g, TileExec{});
  }

  [[nodiscard]] CycleResult solve_scc(const Graph& g,
                                      const TileExec& tiles) const override {
    const NodeId n = g.num_nodes();
    CycleResult result;

    std::optional<std::pair<int128, int128>> best;
    try {
      best = karp_table<std::int64_t>(g, kInf, result.counters, tiles);
    } catch (const NumericOverflow&) {
      // A path sum left the int64 band: redo the table in int128.
      ++result.counters.numeric_promotions;
      result.counters.arc_scans = 0;  // count only the run that produced the answer
      best = karp_table<int128>(g, kInfWide, result.counters, tiles);
    }
    result.counters.iterations = static_cast<std::uint64_t>(n);
    // Karp is a fixed n-level table fill; one summary instant in place
    // of n per-level events keeps traces of big instances readable.
    obs::emit(obs::EventKind::kIteration, "karp.levels", n);

    if (!best) return result;  // no cycle (cannot happen per contract)

    result.has_cycle = true;
    result.value = Rational::from_int128(best->first, best->second);
    return result;
  }
};

}  // namespace

std::unique_ptr<Solver> make_karp_solver(const SolverConfig& config) {
  return std::make_unique<KarpSolver>(config);
}

}  // namespace mcr
