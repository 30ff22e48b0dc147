// Arc tiling: cache-sized work items over a CSR position range.
//
// The PR 1 driver parallelizes across SCCs only, so a single giant SCC
// (the common SPRAND shape) serializes the whole solve. The relaxation
// loops at the heart of Bellman-Ford, the Karp family's level sweep
// (Karp, Karp2, HO) and Howard's improve step are all the same shape —
// "for every node v, fold a min over v's (in- or out-) CSR positions,
// then conditionally update v" — and that shape tiles: ArcTilePartition
// splits a CSR position range [0, m) into tiles of at most
// `target_arcs` positions each. A tile may start or end in the middle
// of a high-degree node's position range (katana's deltaTile idea), so
// one hub node never serializes a wave.
//
// Determinism contract (matches the PR 1 driver contract): a tiled
// sweep produces bit-identical results for ANY tile size and ANY thread
// count, including the serial single-tile case. TiledSweep achieves
// this by construction:
//   * candidates are folded per node with a strict `<` (first position
//     wins ties), so an interior node's fold equals the serial fold;
//   * a node split across tiles is never updated by workers — each tile
//     stashes its partial fold, and a serial merge walks the partials
//     in tile order (= ascending position order) before applying once.
// The serial path runs the identical engine with one tile, so
// tile_arcs == 0 is not a separate code path, just a trivial partition.
#ifndef MCR_GRAPH_ARC_TILES_H
#define MCR_GRAPH_ARC_TILES_H

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.h"
#include "support/thread_pool.h"

namespace mcr {

/// Tile-engine work counters, owned by the driver and exported as the
/// mcr_ops_tiles_* metrics. Kept out of OpCounters deliberately: the
/// OpCounters determinism contract makes solver work equal for every
/// (num_threads, tile_arcs) pair, while tile counts depend on tile_arcs
/// by definition (they are still independent of the thread count).
struct TileStats {
  std::atomic<std::uint64_t> partitions{0};  // ArcTilePartition builds
  std::atomic<std::uint64_t> tiles{0};       // tiles executed, all waves
  std::atomic<std::uint64_t> waves{0};       // sweeps run
};

/// How a solver should run its relaxation sweeps. Passed by the driver
/// into Solver::solve_scc. `tile_arcs <= 0` keeps every sweep a single
/// tile; `pool` may be null even when tiling is enabled (the partition
/// is still built so results and TileStats stay thread-independent, the
/// tiles just run inline).
struct TileExec {
  ThreadPool* pool = nullptr;
  std::int32_t tile_arcs = 0;
  TileStats* stats = nullptr;

  [[nodiscard]] bool enabled() const { return tile_arcs > 0; }
};

/// One tile: CSR positions [pos_begin, pos_end) covering nodes
/// [node_begin, node_end] (inclusive — a node split across tiles
/// appears in more than one).
struct ArcTile {
  NodeId node_begin = 0;
  NodeId node_end = 0;
  std::int32_t pos_begin = 0;
  std::int32_t pos_end = 0;
  /// node_begin's positions continue before pos_begin (previous tile).
  bool shares_first = false;
  /// node_end's positions continue at/after pos_end (next tile).
  bool shares_last = false;
};

/// Splits the position range of a CSR offset array `first` (size n+1,
/// non-decreasing, first[0] == 0) into tiles of at most `target_arcs`
/// positions. Every node in [0, n) is covered by at least one tile
/// (zero-degree nodes included), every position by exactly one.
/// `target_arcs <= 0` produces a single tile covering everything.
class ArcTilePartition {
 public:
  ArcTilePartition(std::span<const std::int32_t> first, std::int32_t target_arcs);

  [[nodiscard]] const std::vector<ArcTile>& tiles() const { return tiles_; }
  [[nodiscard]] std::size_t size() const { return tiles_.size(); }
  /// Total CSR positions covered (= first.back()).
  [[nodiscard]] std::int32_t positions() const { return positions_; }

 private:
  std::vector<ArcTile> tiles_;
  std::int32_t positions_ = 0;
};

/// Lock-free max-fold for the "last improved node" style reductions:
/// deterministic (the max does not depend on update order) and cheap.
inline void atomic_store_max(std::atomic<NodeId>& target, NodeId v) {
  NodeId cur = target.load(std::memory_order_relaxed);
  while (cur < v &&
         !target.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

/// The shared relaxation engine. Constructed once per solve over a CSR
/// offset array (in_first() for predecessor recurrences, out_first()
/// for Howard's improve step), then run() once per sweep/wave.
///
/// run(none, candidate, apply):
///   * `candidate(pos) -> D` evaluates CSR position `pos`; called
///     concurrently from workers, must only read shared state that is
///     constant for the duration of the wave. May throw (the first
///     tile's exception, in tile order, is rethrown after the wave).
///   * per node the candidates fold with a strict `D::operator<`
///     starting from `none`; ties keep the earliest position, so make
///     `<` a strict weak order that breaks value ties by position if
///     position identity matters to the caller.
///   * `apply(v, best) -> void` commits the folded result; called
///     exactly once per covered node (including zero-degree nodes,
///     which get `none`). Interior nodes are applied from worker
///     threads — apply may touch per-node slots freely but must use
///     atomics for any cross-node shared state. Nodes split across
///     tiles are applied on the calling thread after the wave.
class TiledSweep {
 public:
  TiledSweep(std::span<const std::int32_t> first, const TileExec& exec)
      : first_(first),
        partition_(first, exec.enabled() ? exec.tile_arcs : 0),
        pool_(exec.pool),
        stats_(exec.stats) {
    if (stats_ != nullptr) {
      stats_->partitions.fetch_add(1, std::memory_order_relaxed);
    }
  }

  /// Total positions one wave scans (= arc_scans per sweep).
  [[nodiscard]] std::int64_t positions() const { return partition_.positions(); }
  [[nodiscard]] std::size_t num_tiles() const { return partition_.size(); }

  template <typename D, typename Candidate, typename Apply>
  void run(const D& none, const Candidate& candidate, const Apply& apply) {
    const std::vector<ArcTile>& tiles = partition_.tiles();
    if (tiles.empty()) return;
    // Wave accounting counts the partition's tiles whether or not a
    // pool executes them — that keeps mcr_ops_tiles_* a function of
    // (graph, tile_arcs) alone, independent of the thread count.
    if (stats_ != nullptr) {
      stats_->waves.fetch_add(1, std::memory_order_relaxed);
      stats_->tiles.fetch_add(tiles.size(), std::memory_order_relaxed);
    }

    // No pool: fold every node over its full position range in one
    // pass. By the determinism contract this produces exactly what the
    // tile-merge path produces, without the split-node bookkeeping.
    const bool multi = tiles.size() > 1 && pool_ != nullptr;
    if (!multi) {
      const std::size_t n = first_.size() - 1;
      for (std::size_t v = 0; v < n; ++v) {
        D best = none;
        for (std::int32_t p = first_[v]; p < first_[v + 1]; ++p) {
          const D cand = candidate(p);
          if (cand < best) best = cand;
        }
        apply(static_cast<NodeId>(v), best);
      }
      return;
    }
    // Per-tile partial folds for nodes split across tiles: at most two
    // per tile (its first and last node). Slot order == position order.
    struct Partial {
      NodeId node = kInvalidNode;
      D best;
    };
    std::vector<Partial> partials(tiles.size() * 2, Partial{kInvalidNode, none});

    run_indexed(pool_, tiles.size(), [&](std::size_t t) {
      const ArcTile& tile = tiles[t];
      std::size_t slot = t * 2;
      for (NodeId v = tile.node_begin; v <= tile.node_end; ++v) {
        const std::int32_t b =
            std::max(first_[static_cast<std::size_t>(v)], tile.pos_begin);
        const std::int32_t e =
            std::min(first_[static_cast<std::size_t>(v) + 1], tile.pos_end);
        D best = none;
        for (std::int32_t p = b; p < e; ++p) {
          const D cand = candidate(p);
          if (cand < best) best = cand;
        }
        const bool shared = (v == tile.node_begin && tile.shares_first) ||
                            (v == tile.node_end && tile.shares_last);
        if (shared) {
          partials[slot].best = best;
          partials[slot].node = v;  // publish after best (same thread)
          ++slot;
        } else {
          apply(v, best);
        }
      }
    });

    // Serial merge of the split-node partials, in tile (= position)
    // order: the fold over ordered sub-folds equals the serial fold,
    // and each split node is applied exactly once.
    NodeId pending_node = kInvalidNode;
    D pending = none;
    for (const Partial& p : partials) {
      if (p.node == kInvalidNode) continue;
      if (p.node != pending_node) {
        if (pending_node != kInvalidNode) apply(pending_node, pending);
        pending_node = p.node;
        pending = p.best;
      } else if (p.best < pending) {
        pending = p.best;
      }
    }
    if (pending_node != kInvalidNode) apply(pending_node, pending);
  }

 private:
  std::span<const std::int32_t> first_;
  ArcTilePartition partition_;
  ThreadPool* pool_ = nullptr;
  TileStats* stats_ = nullptr;
};

}  // namespace mcr

#endif  // MCR_GRAPH_ARC_TILES_H
