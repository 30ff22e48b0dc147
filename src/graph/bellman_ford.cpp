#include "graph/bellman_ford.h"

#include "graph/bellman_ford_engine.h"
#include "support/checked.h"

namespace mcr {

BellmanFordResult bellman_ford_all(const Graph& g, std::span<const std::int64_t> cost,
                                   OpCounters* counters, const TileExec& tiles) {
  BellmanFordResult out;
  try {
    auto core = detail::run_bellman_ford<CheckedI64>(g, cost, counters, tiles);
    out.has_negative_cycle = core.has_negative_cycle;
    out.cycle = std::move(core.cycle);
    out.dist.reserve(core.dist.size());
    for (const CheckedI64 d : core.dist) out.dist.push_back(d.value());
    return out;
  } catch (const NumericOverflow&) {
    // A distance sum wrapped int64: re-run the whole recurrence in
    // int128 rather than continuing on a wrapped value. Cycle detection
    // and the witness stay exact; the potentials are narrowed back only
    // when they fit (when they do not, no int64 caller could have used
    // them anyway, and the wide result still carries the verdict).
    if (counters) ++counters->numeric_promotions;
  }
  auto core = detail::run_bellman_ford<int128>(g, cost, counters, tiles);
  out.has_negative_cycle = core.has_negative_cycle;
  out.cycle = std::move(core.cycle);
  out.dist.reserve(core.dist.size());
  for (const int128 d : core.dist) {
    if (d > INT64_MAX || d < INT64_MIN) {
      throw NumericOverflow("bellman_ford potentials (not representable in int64)");
    }
    out.dist.push_back(static_cast<std::int64_t>(d));
  }
  return out;
}

BellmanFordRealResult bellman_ford_all_real(const Graph& g, std::span<const double> cost,
                                            OpCounters* counters, const TileExec& tiles) {
  return detail::run_bellman_ford<double>(g, cost, counters, tiles);
}

}  // namespace mcr
