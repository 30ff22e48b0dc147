// KO: the Karp-Orlin parametric shortest path algorithm (Karp & Orlin
// 1981; §2.3 of the paper). Engine in algo/parametric.h; this file
// instantiates the arc-heap strategy with the chosen heap (Fibonacci by
// default, as in the paper's LEDA implementation).
#include "algo/algorithms.h"
#include "algo/parametric.h"
#include "ds/binary_heap.h"
#include "ds/fibonacci_heap.h"
#include "ds/pairing_heap.h"

namespace mcr {

namespace {

class KoSolver final : public Solver {
 public:
  KoSolver(ProblemKind kind, HeapKind heap) : kind_(kind), heap_(heap) {}

  [[nodiscard]] std::string name() const override {
    std::string base = kind_ == ProblemKind::kCycleMean ? "ko" : "ko_ratio";
    if (heap_ == HeapKind::kBinary) base += "_bin";
    if (heap_ == HeapKind::kPairing) base += "_pair";
    return base;
  }
  [[nodiscard]] ProblemKind kind() const override { return kind_; }

  [[nodiscard]] CycleResult solve_scc(const Graph& g,
                                      const TileExec& /*tiles*/) const override {
    switch (heap_) {
      case HeapKind::kFibonacci:
        return detail::solve_ko_with<FibonacciHeap>(g, kind_);
      case HeapKind::kPairing:
        return detail::solve_ko_with<PairingHeap>(g, kind_);
      case HeapKind::kBinary:
        return detail::solve_ko_with<BinaryHeap>(g, kind_);
    }
    throw std::logic_error("KoSolver: unknown heap kind");
  }

 private:
  ProblemKind kind_;
  HeapKind heap_;
};

}  // namespace

std::unique_ptr<Solver> make_ko_solver(const SolverConfig&, HeapKind heap) {
  return std::make_unique<KoSolver>(ProblemKind::kCycleMean, heap);
}

}  // namespace mcr
