#include "graph/arc_tiles.h"

#include <stdexcept>

namespace mcr {

ArcTilePartition::ArcTilePartition(std::span<const std::int32_t> first,
                                   std::int32_t target_arcs) {
  if (first.empty()) {
    throw std::invalid_argument("ArcTilePartition: empty CSR offset array");
  }
  const NodeId n = static_cast<NodeId>(first.size()) - 1;
  positions_ = first[static_cast<std::size_t>(n)];
  if (n == 0) return;  // no nodes, no tiles
  if (target_arcs <= 0 || positions_ <= target_arcs) {
    tiles_.push_back(ArcTile{0, n - 1, 0, positions_, false, false});
    return;
  }

  tiles_.reserve(static_cast<std::size_t>(positions_ / target_arcs) + 1);
  NodeId v = 0;
  std::int32_t pos = 0;
  while (true) {
    ArcTile t;
    t.node_begin = v;
    t.pos_begin = pos;
    t.shares_first = pos > first[static_cast<std::size_t>(v)];
    const std::int32_t pos_end = std::min(pos + target_arcs, positions_);
    if (pos_end == positions_) {
      // Final tile absorbs the remaining positions and any trailing
      // zero-degree nodes, so node coverage stays exhaustive.
      t.node_end = n - 1;
      t.pos_end = positions_;
      tiles_.push_back(t);
      break;
    }
    // node_end = the node owning position pos_end - 1. The cursor walk
    // is amortized O(n) across all tiles.
    NodeId w = v;
    while (first[static_cast<std::size_t>(w) + 1] < pos_end) ++w;
    t.node_end = w;
    t.pos_end = pos_end;
    t.shares_last = first[static_cast<std::size_t>(w) + 1] > pos_end;
    tiles_.push_back(t);
    v = t.shares_last ? w : w + 1;
    pos = pos_end;
  }
}

}  // namespace mcr
