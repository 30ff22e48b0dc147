// Shared engine for the Karp family: karp, karp2, dg, ho and ho_ratio
// (§2.2 of the paper; Table 1 #13). Internal header.
//
// Karp's theorem: for any source s of a strongly connected graph,
//   lambda* = min_v max_{0<=k<L} (D_L(v) - D_k(v)) / (L - k),
// where D_k(v) is the minimum weight of a k-arc walk from s to v and
// L = n; ho_ratio applies it over transit levels (walks of transit
// exactly t, L = T, the total transit). The solvers differ only in how
// they fill D, so what they share lives here: the "no walk" sentinel,
// the pull level sweep and Karp's formula. Each solver picks its table
// width once with with_width (support/int_range.h) from a bound B on
// its walks: every stored value is at most B * max|w|.
#ifndef MCR_ALGO_KARP_FAMILY_H
#define MCR_ALGO_KARP_FAMILY_H

#include <algorithm>
#include <cstdint>
#include <optional>
#include <span>
#include <type_traits>
#include <vector>

#include "graph/arc_tiles.h"
#include "graph/graph.h"
#include "support/int128.h"
#include "support/int_range.h"
#include "support/op_counters.h"
#include "support/rational.h"

namespace mcr::detail {

/// The "no walk" entry of a table of width D. The width rule keeps every
/// stored value below it: for int128, table entries stay below 2^95 and
/// HO's potentials below 2 n^2 max|w| < 2^126.
template <typename D>
constexpr D no_walk() {
  if constexpr (std::is_same_v<D, std::int64_t>) {
    return kInt64Limit;
  } else {
    return static_cast<int128>(1) << 126;
  }
}

/// The pull level sweep: each run fills D_k(v) = min over in-arcs (u,v)
/// of D_{k-1}(u) + w(u,v) from the row D_{k-1} through TiledSweep, so
/// results are bit-identical for every tile size and thread count, and
/// counts the level's in-arcs as arc_scans.
template <typename D>
class LevelSweep {
 public:
  LevelSweep(const Graph& g, const TileExec& tiles, OpCounters& counters)
      : g_(g), in_ids_(g.in_arc_ids()), sweep_(g.in_first(), tiles), counters_(counters) {}

  /// Calls apply(v, D_k(v)) once per node (from workers, see TiledSweep).
  template <typename Apply>
  void run(const D* prev, const Apply& apply) {
    sweep_.run(no_walk<D>(), [&](std::int32_t p) { return relax(prev, p); }, apply);
    counters_.arc_scans += static_cast<std::uint64_t>(sweep_.positions());
  }

  /// As run(), also passing the winning in-arc (kInvalidArc when v has
  /// no k-arc walk); value ties keep the first in-arc in CSR order.
  template <typename Apply>
  void run_with_arc(const D* prev, const Apply& apply) {
    struct Cand {
      D dist;
      std::int32_t pos;
      bool operator<(const Cand& o) const { return dist < o.dist; }
    };
    sweep_.run(
        Cand{no_walk<D>(), -1}, [&](std::int32_t p) { return Cand{relax(prev, p), p}; },
        [&](NodeId v, const Cand& best) {
          apply(v, best.dist,
                best.pos < 0 ? kInvalidArc : in_ids_[static_cast<std::size_t>(best.pos)]);
        });
    counters_.arc_scans += static_cast<std::uint64_t>(sweep_.positions());
  }

 private:
  // du + w is a walk the caller's width bound covers: it cannot wrap.
  D relax(const D* prev, std::int32_t p) const {
    const ArcId a = in_ids_[static_cast<std::size_t>(p)];
    const D du = prev[static_cast<std::size_t>(g_.src(a))];
    return du == no_walk<D>() ? du : du + g_.weight(a);
  }

  const Graph& g_;
  std::span<const ArcId> in_ids_;
  TiledSweep sweep_;
  OpCounters& counters_;
};

/// Karp's formula: min over v of max over k < L of (D_L(v) - D_k(v)) /
/// (L - k), over the finite entries, exact. Built from the row D_L; fed
/// every D_k(v), k < L, in any order. fold() writes only v's own slot,
/// so concurrent folds of distinct nodes are race-free.
template <typename D>
class KarpFormula {
 public:
  KarpFormula(std::span<const D> last_row, std::int64_t levels)
      : last_(last_row.begin(), last_row.end()), levels_(levels), max_(last_row.size()) {}

  void fold(NodeId v, std::int64_t k, D dk) {
    const D dl = last_[static_cast<std::size_t>(v)];
    if (dk == no_walk<D>() || dl == no_walk<D>()) return;
    // |num| <= 2 B max|w| < 2^95 and den <= L < 2^31 (L = n, or T within
    // ho_ratio's table cap), so the cross products stay below 2^126.
    const D num = dl - dk;
    const std::int64_t den = levels_ - k;
    Frac& m = max_[static_cast<std::size_t>(v)];
    if (m.den == 0 || static_cast<int128>(num) * m.den > static_cast<int128>(m.num) * den) {
      m = Frac{num, den};
    }
  }

  /// Folds rows 0..L-1 of a row-major table (row k at table + k * n)
  /// for the nodes in [lo, hi).
  void fold_table(const D* table, NodeId lo, NodeId hi) {
    for (std::int64_t k = 0; k < levels_; ++k) {
      const D* row = table + static_cast<std::size_t>(k) * last_.size();
      for (NodeId v = lo; v < hi; ++v) fold(v, k, row[static_cast<std::size_t>(v)]);
    }
  }

  /// The minimum over nodes; nullopt when no node has a finite D_L(v)
  /// and a finite D_k(v), k < L.
  [[nodiscard]] std::optional<Rational> value() const {
    const Frac* best = nullptr;
    for (const Frac& f : max_) {
      if (f.den != 0 && (best == nullptr || static_cast<int128>(f.num) * best->den <
                                                static_cast<int128>(best->num) * f.den)) {
        best = &f;
      }
    }
    if (best == nullptr) return std::nullopt;
    return Rational::from_int128(best->num, best->den);
  }

 private:
  struct Frac {
    D num = 0;
    std::int64_t den = 0;  // 0: nothing folded yet
  };
  std::vector<D> last_;
  std::int64_t levels_;
  std::vector<Frac> max_;
};

}  // namespace mcr::detail

#endif  // MCR_ALGO_KARP_FAMILY_H
