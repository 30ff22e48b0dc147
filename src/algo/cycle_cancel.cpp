// Cycle canceling: the simplest correct MCM/MCR algorithm, included as
// a baseline the paper's taxonomy implies but never names.
//
// Start from any cycle; while G_lambda (lambda = incumbent cycle's
// value) contains a negative cycle, adopt that cycle and repeat. Each
// round strictly decreases lambda over the finite set of cycle values,
// so it terminates at the optimum with a certificate (the final
// Bellman-Ford pass proves no better cycle exists). Worst case is
// pseudopolynomial like Lawler's, but on the study's workloads it
// converges in a handful of rounds — a useful sanity baseline when
// comparing against the sophisticated algorithms. The solver is the
// shared exact finish (finish_exact, core/critical.h) started from any
// cycle; every other solver ends in the same finish when it stops early
// or when its int64 recurrence is out of range.
#include <vector>

#include "algo/algorithms.h"
#include "core/critical.h"
#include "core/result.h"

namespace mcr {

namespace {

class CycleCancelSolver final : public Solver {
 public:
  explicit CycleCancelSolver(ProblemKind kind) : kind_(kind) {}

  [[nodiscard]] std::string name() const override {
    return kind_ == ProblemKind::kCycleMean ? "cycle_cancel" : "cycle_cancel_ratio";
  }
  [[nodiscard]] ProblemKind kind() const override { return kind_; }

  [[nodiscard]] CycleResult solve_scc(const Graph& g,
                                      const TileExec& /*tiles*/) const override {
    CycleResult result;
    finish_exact(g, kind_, {}, result);
    result.counters.iterations = result.counters.feasibility_checks;
    return result;
  }

 private:
  ProblemKind kind_;
};

}  // namespace

std::unique_ptr<Solver> make_cycle_cancel_solver(ProblemKind kind) {
  return std::make_unique<CycleCancelSolver>(kind);
}

}  // namespace mcr
