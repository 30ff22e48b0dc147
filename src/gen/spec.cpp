#include "gen/spec.h"

#include <algorithm>
#include <stdexcept>

#include "gen/circuit.h"
#include "gen/sprand.h"
#include "gen/structured.h"

namespace mcr::gen {

Graph generate(const std::string& family, const SpecParam& param, std::int64_t max_size) {
  // NodeId/ArcId are 32-bit: a larger bound would truncate on the casts below.
  max_size = std::min<std::int64_t>(max_size, std::numeric_limits<NodeId>::max());
  const auto size = [&](const std::string& what, std::int64_t value) {
    if (value < 1 || value > max_size) {
      throw std::invalid_argument(family + " " + what + " = " + std::to_string(value) +
                                  " is outside [1, " + std::to_string(max_size) + "]");
    }
    return value;
  };
  const auto seed = static_cast<std::uint64_t>(param("seed", 1));
  if (family == "sprand") {
    SprandConfig cfg;
    cfg.n = static_cast<NodeId>(size("n", param("n", 512)));
    cfg.m = static_cast<ArcId>(size("m", param("m", 2 * std::int64_t{cfg.n})));
    cfg.min_weight = param("wmin", 1);
    cfg.max_weight = param("wmax", 10000);
    cfg.min_transit = param("tmin", 1);
    cfg.max_transit = param("tmax", 1);
    cfg.seed = seed;
    return sprand(cfg);
  }
  if (family == "circuit") {
    CircuitConfig cfg;
    cfg.registers = static_cast<NodeId>(size("n", param("n", 512)));
    cfg.module_size = static_cast<NodeId>(param("module", 32));
    const std::int64_t fanout = param("fanout", 150);
    // n x fanout / 100 <= max_size, without forming the product.
    if (fanout > (100 * max_size + 99) / cfg.registers) {
      throw std::invalid_argument("circuit arcs (n x fanout / 100) exceed " +
                                  std::to_string(max_size));
    }
    cfg.avg_fanout = static_cast<double>(fanout) / 100.0;
    cfg.seed = seed;
    return circuit(cfg);
  }
  if (family == "ring") {
    return random_ring(static_cast<NodeId>(size("n", param("n", 64))), param("wmin", 1),
                       param("wmax", 100), seed);
  }
  if (family == "torus") {
    const std::int64_t rows = size("rows", param("rows", 8));
    const std::int64_t cols = size("cols", param("cols", 8));
    (void)size("rows x cols", rows * cols);
    return torus(static_cast<NodeId>(rows), static_cast<NodeId>(cols), param("wmin", 1),
                 param("wmax", 100), seed);
  }
  throw std::invalid_argument("unknown family '" + family +
                              "' (expected sprand | circuit | ring | torus)");
}

}  // namespace mcr::gen
