// YTO: the Young-Tarjan-Orlin parametric shortest path algorithm
// (Young, Tarjan & Orlin 1991; §2.3 of the paper) — "essentially an
// efficient implementation of the KO algorithm": identical pivots,
// node-keyed event queue. Engine in algo/parametric.h. The ratio
// variant (minimum cost-to-time ratio) uses transit-weighted keys.
#include "algo/algorithms.h"
#include "algo/parametric.h"
#include "ds/binary_heap.h"
#include "ds/fibonacci_heap.h"
#include "ds/pairing_heap.h"

namespace mcr {

namespace {

class YtoSolver final : public Solver {
 public:
  YtoSolver(ProblemKind kind, HeapKind heap) : kind_(kind), heap_(heap) {}

  [[nodiscard]] std::string name() const override {
    std::string base = kind_ == ProblemKind::kCycleMean ? "yto" : "yto_ratio";
    if (heap_ == HeapKind::kBinary) base += "_bin";
    if (heap_ == HeapKind::kPairing) base += "_pair";
    return base;
  }
  [[nodiscard]] ProblemKind kind() const override { return kind_; }

  [[nodiscard]] CycleResult solve_scc(const Graph& g,
                                      const TileExec& /*tiles*/) const override {
    switch (heap_) {
      case HeapKind::kFibonacci:
        return detail::solve_yto_with<FibonacciHeap>(g, kind_);
      case HeapKind::kPairing:
        return detail::solve_yto_with<PairingHeap>(g, kind_);
      case HeapKind::kBinary:
        return detail::solve_yto_with<BinaryHeap>(g, kind_);
    }
    throw std::logic_error("YtoSolver: unknown heap kind");
  }

 private:
  ProblemKind kind_;
  HeapKind heap_;
};

}  // namespace

std::unique_ptr<Solver> make_yto_solver(const SolverConfig&, HeapKind heap) {
  return std::make_unique<YtoSolver>(ProblemKind::kCycleMean, heap);
}

std::unique_ptr<Solver> make_yto_ratio_solver(const SolverConfig&, HeapKind heap) {
  return std::make_unique<YtoSolver>(ProblemKind::kCycleRatio, heap);
}

}  // namespace mcr
