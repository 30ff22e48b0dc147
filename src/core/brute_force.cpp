#include "core/brute_force.h"

#include <vector>

#include "core/result.h"
#include "graph/cycle_enum.h"

namespace mcr {

namespace {

class BruteForceSolver final : public Solver {
 public:
  BruteForceSolver(ProblemKind kind, std::uint64_t max_cycles)
      : kind_(kind), max_cycles_(max_cycles) {}

  [[nodiscard]] std::string name() const override {
    return kind_ == ProblemKind::kCycleMean ? "brute_force" : "brute_force_ratio";
  }

  [[nodiscard]] ProblemKind kind() const override { return kind_; }

  [[nodiscard]] CycleResult solve_scc(const Graph& g,
                                      const TileExec& /*tiles*/) const override {
    CycleResult best;
    WideRational best_value;
    enumerate_simple_cycles(
        g,
        [&](std::span<const ArcId> cycle) {
          ++best.counters.cycle_evaluations;
          const WideRational value = wide_cycle_value(g, kind_, cycle);
          if (!best.has_cycle || value < best_value) {
            best.has_cycle = true;
            best_value = value;
            best.cycle.assign(cycle.begin(), cycle.end());
          }
          return true;
        },
        max_cycles_);
    if (best.has_cycle) best.value = best_value.to_rational();
    return best;
  }

 private:
  ProblemKind kind_;
  std::uint64_t max_cycles_;
};

}  // namespace

std::unique_ptr<Solver> make_brute_force_solver(ProblemKind kind, std::uint64_t max_cycles) {
  return std::make_unique<BruteForceSolver>(kind, max_cycles);
}

}  // namespace mcr
