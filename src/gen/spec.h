// Generator specs: the one family -> Graph builder behind mcr_gen,
// mcr_pack and the solve service's "generator" graph source, so a spec
// means the same graph on every path.
#ifndef MCR_GEN_SPEC_H
#define MCR_GEN_SPEC_H

#include <cstdint>
#include <functional>
#include <limits>
#include <string>

#include "graph/graph.h"

namespace mcr::gen {

/// The value of parameter `key` (a CLI flag, a JSON field), or
/// `fallback` when the spec omits it.
using SpecParam = std::function<std::int64_t(const std::string& key, std::int64_t fallback)>;

/// Builds one graph of `family` from `param` (defaults in brackets):
///   sprand   n [512], m [2n], wmin [1], wmax [10000], tmin [1], tmax [1]
///   circuit  n [512] registers, module [32], fanout [150] in percent
///   ring     n [64], wmin [1], wmax [100]
///   torus    rows [8], cols [8], wmin [1], wmax [100]
/// plus seed [1]. Every size — n, m, rows x cols, and a circuit's
/// n x fanout / 100 arcs — must lie in [1, max_size]. Throws
/// std::invalid_argument on a size outside that range, an unknown
/// family, or parameters the family's generator rejects.
[[nodiscard]] Graph generate(const std::string& family, const SpecParam& param,
                             std::int64_t max_size = std::numeric_limits<NodeId>::max());

}  // namespace mcr::gen

#endif  // MCR_GEN_SPEC_H
