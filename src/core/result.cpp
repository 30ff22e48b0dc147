#include "core/result.h"

#include <stdexcept>

#include "support/checked.h"

namespace mcr {

std::int64_t cycle_weight(const Graph& g, const std::vector<ArcId>& cycle) {
  std::int64_t w = 0;
  for (const ArcId a : cycle) w = checked_add(w, g.weight(a));
  return w;
}

std::int64_t cycle_transit(const Graph& g, const std::vector<ArcId>& cycle) {
  std::int64_t t = 0;
  for (const ArcId a : cycle) t = checked_add(t, g.transit(a));
  return t;
}

WideRational wide_cycle_value(const Graph& g, ProblemKind kind,
                              std::span<const ArcId> cycle) {
  if (cycle.empty()) throw std::invalid_argument("cycle_value: empty cycle");
  // Witness sums must stay exact for adversarial weights: a cycle of m
  // arcs bounds the int128 sums by m * INT64_MAX, far inside int128.
  int128 w = 0;
  int128 t = 0;
  for (const ArcId a : cycle) {
    w += g.weight(a);
    t += arc_transit(g, kind, a);
  }
  if (t <= 0) throw std::invalid_argument("cycle_value: non-positive cycle transit");
  return {w, t};
}

bool is_valid_cycle(const Graph& g, const std::vector<ArcId>& cycle) {
  if (cycle.empty()) return false;
  for (const ArcId a : cycle) {
    if (a < 0 || a >= g.num_arcs()) return false;
  }
  for (std::size_t i = 0; i < cycle.size(); ++i) {
    const ArcId cur = cycle[i];
    const ArcId next = cycle[(i + 1) % cycle.size()];
    if (g.dst(cur) != g.src(next)) return false;
  }
  return true;
}

}  // namespace mcr
