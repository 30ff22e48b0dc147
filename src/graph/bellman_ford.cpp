#include "graph/bellman_ford.h"

#include <algorithm>

#include "graph/bellman_ford_engine.h"
#include "support/checked.h"
#include "support/int_range.h"

namespace mcr {

BellmanFordResult bellman_ford_all(const Graph& g, std::span<const std::int64_t> cost,
                                   OpCounters* counters, const TileExec& tiles) {
  int128 max_abs_cost = 0;
  for (const std::int64_t c : cost) {
    max_abs_cost = std::max(max_abs_cost, c < 0 ? -static_cast<int128>(c) : int128{c});
  }
  // Every potential and candidate is the cost of a walk of at most n+1
  // arcs (one per pass), so (n+1) * max|cost| bounds them all.
  return with_width((g.num_nodes() + int128{1}) * max_abs_cost, counters, [&](auto zero) {
    auto core = detail::run_bellman_ford<decltype(zero)>(g, cost, counters, tiles);
    BellmanFordResult out{core.has_negative_cycle, std::move(core.cycle), {}};
    // The verdict and the witness are exact at any width; int128
    // potentials come back only when they fit int64.
    for (const int128 d : core.dist) {
      if (d > INT64_MAX || d < INT64_MIN) {
        throw NumericOverflow("bellman_ford potentials (not representable in int64)");
      }
      out.dist.push_back(static_cast<std::int64_t>(d));
    }
    return out;
  });
}

BellmanFordRealResult bellman_ford_all_real(const Graph& g, std::span<const double> cost,
                                            OpCounters* counters, const TileExec& tiles) {
  return detail::run_bellman_ford<double>(g, cost, counters, tiles);
}

}  // namespace mcr
