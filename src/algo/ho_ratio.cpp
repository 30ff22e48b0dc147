// Hartmann-Orlin pseudopolynomial minimum cost-to-time ratio algorithm
// (Table 1 row 13 of the paper: "Hartmann & Orlin 1993, O(Tm), exact,
// pseudopolynomial", from "Finding minimum cost to time ratio cycles
// with small integral transit times").
//
// The idea generalizes Karp's theorem from arc counts to transit time:
// with integral transit times and T = the total transit time of G, let
// D_t(v) be the minimum weight of a walk from the source to v with
// transit exactly t. Then
//     rho* = min_v max_{0<=t<T} (D_T(v) - D_t(v)) / (T - t)
// over the finite entries. The DP fills T+1 rows of n entries — O(Tm)
// time and O(Tn) space, attractive exactly when transit times are small
// integers (the paper's DSP/iteration-bound setting).
//
// Zero-transit arcs relax *within* a level; they form a DAG (guaranteed
// by validate_ratio_instance), so one pass in topological order per
// level suffices.
//
// The table fill and Karp's formula run at the width the range rule
// picks (support/int_range.h). Guard rails: walks of transit
// exactly T may not exist in degenerate instances (all cycle transits
// sharing a divisor that T misses). The candidate from the formula is
// therefore cross-checked — the witness is extracted from the critical
// subgraph when the candidate is the exact optimum, and
// finish_exact repairs the rare rest, so the solver is exact
// unconditionally.
#include <optional>
#include <stdexcept>
#include <vector>

#include "algo/algorithms.h"
#include "algo/karp_family.h"
#include "core/critical.h"
#include "core/result.h"
#include "graph/traversal.h"
#include "obs/obs.h"

namespace mcr {

namespace {

/// Largest level table ho_ratio builds, in (T+1)*n entries. It keeps the
/// index arithmetic in range and bounds Karp's formula: T and every
/// walk's arc count stay below 2^31.
constexpr std::int64_t kMaxTableEntries = (std::int64_t{1} << 31) - 1;

/// Fills D_t(v) for t = 0..T and evaluates Karp's formula over it.
template <typename D>
std::optional<Rational> ho_ratio_value(const Graph& g, const Graph& zero_sub,
                                       const std::vector<NodeId>& zero_topo,
                                       OpCounters& counters) {
  const NodeId n = g.num_nodes();
  const std::size_t un = static_cast<std::size_t>(n);
  const std::int64_t total = g.total_transit();
  constexpr D kNone = detail::no_walk<D>();

  std::vector<D> d((static_cast<std::size_t>(total) + 1) * un, kNone);
  const auto cell = [&](std::int64_t t, NodeId v) -> D& {
    return d[static_cast<std::size_t>(t) * un + static_cast<std::size_t>(v)];
  };

  const auto relax_zero_arcs = [&](std::int64_t t) {
    for (const NodeId u : zero_topo) {
      const D du = cell(t, u);
      if (du == kNone) continue;
      for (const ArcId a : zero_sub.out_arcs(u)) {
        ++counters.arc_scans;
        D& dv = cell(t, zero_sub.dst(a));
        if (du + zero_sub.weight(a) < dv) dv = du + zero_sub.weight(a);
      }
    }
  };

  cell(0, 0) = D{0};
  relax_zero_arcs(0);
  for (std::int64_t t = 1; t <= total; ++t) {
    ++counters.iterations;
    obs::emit(obs::EventKind::kIteration, "ho_ratio.level", t);
    for (NodeId v = 0; v < n; ++v) {
      D best = kNone;
      for (const ArcId a : g.in_arcs(v)) {
        const std::int64_t ta = g.transit(a);
        if (ta == 0 || ta > t) continue;
        ++counters.arc_scans;
        const D du = cell(t - ta, g.src(a));
        if (du == kNone) continue;
        if (du + g.weight(a) < best) best = du + g.weight(a);
      }
      cell(t, v) = best;
    }
    relax_zero_arcs(t);
  }

  // rho-hat = min_v max_t (D_T(v) - D_t(v)) / (T - t).
  detail::KarpFormula<D> formula(std::span<const D>(&cell(total, 0), un), total);
  formula.fold_table(d.data(), 0, n);
  return formula.value();
}

class HartmannOrlinRatioSolver final : public Solver {
 public:
  explicit HartmannOrlinRatioSolver(const SolverConfig&) {}

  [[nodiscard]] std::string name() const override { return "ho_ratio"; }
  [[nodiscard]] ProblemKind kind() const override { return ProblemKind::kCycleRatio; }

  [[nodiscard]] CycleResult solve_scc(const Graph& g,
                                      const TileExec& /*tiles*/) const override {
    const NodeId n = g.num_nodes();
    const std::int64_t total = g.total_transit();
    CycleResult result;

    // The zero-transit subgraph in topological order, for in-level
    // relaxation (no order when there are no zero-transit arcs).
    std::vector<ArcSpec> zero_specs;
    for (ArcId a = 0; a < g.num_arcs(); ++a) {
      if (g.transit(a) == 0) {
        zero_specs.push_back(ArcSpec{g.src(a), g.dst(a), g.weight(a), 0});
      }
      if (g.transit(a) < 0) {
        throw std::invalid_argument("ho_ratio: negative transit time");
      }
    }
    const Graph zero_sub(n, zero_specs);
    std::vector<NodeId> zero_topo;
    if (!zero_specs.empty()) {
      zero_topo = topological_order(zero_sub);
      if (zero_topo.empty()) {
        throw std::invalid_argument("ho_ratio: zero-transit cycle");
      }
    }

    // A walk of transit t has at most t positive-transit arcs and, around
    // them, t+1 zero-transit runs of at most n-1 arcs each (the
    // zero-transit arcs form a DAG): every D_t(v) is the weight of a walk
    // of at most (T+1)*n arcs.
    const int128 walk_arcs = (static_cast<int128>(total) + 1) * n;
    if (walk_arcs > kMaxTableEntries) {
      throw std::invalid_argument("ho_ratio: transit table of (T+1)*n entries too large");
    }
    const std::optional<Rational> candidate =
        with_width(walk_arcs * max_abs_weight(g), &result.counters, [&](auto zero) {
          return ho_ratio_value<decltype(zero)>(g, zero_sub, zero_topo, result.counters);
        });

    if (candidate) {
      // The candidate is exact whenever transit-T walks exist to the
      // right nodes; extract a witness and certify/refine.
      try {
        result.cycle =
            extract_optimal_cycle(g, *candidate, ProblemKind::kCycleRatio);
        result.value = *candidate;
        result.has_cycle = true;
        return result;
      } catch (const std::invalid_argument&) {
        // Degenerate: fall through to the generic finish below.
      }
    }
    // No usable transit-T row (or the candidate missed): start from any
    // cycle and let exact cycle canceling finish.
    finish_exact(g, ProblemKind::kCycleRatio, {}, result);
    return result;
  }
};

}  // namespace

std::unique_ptr<Solver> make_hartmann_orlin_ratio_solver(const SolverConfig& config) {
  return std::make_unique<HartmannOrlinRatioSolver>(config);
}

}  // namespace mcr
