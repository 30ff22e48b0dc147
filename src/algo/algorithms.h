// Factory functions for every algorithm in the study.
//
// Most callers should go through the SolverRegistry (core/registry.h) or
// the driver conveniences (core/driver.h); these factories exist for
// direct instantiation with non-default template choices (e.g. the heap
// ablation on KO/YTO).
#ifndef MCR_ALGO_ALGORITHMS_H
#define MCR_ALGO_ALGORITHMS_H

#include <memory>

#include "core/problem.h"
#include "core/solver.h"

namespace mcr {

/// Heap used by the parametric shortest-path solvers. The paper used
/// Fibonacci heaps for both KO and YTO (LEDA's default, §4.2).
enum class HeapKind {
  kFibonacci,
  kPairing,
  kBinary,
};

// --- Minimum cycle mean solvers (Table 2 of the paper) ---
std::unique_ptr<Solver> make_karp_solver(const SolverConfig& config = {});
std::unique_ptr<Solver> make_karp2_solver(const SolverConfig& config = {});
std::unique_ptr<Solver> make_dg_solver(const SolverConfig& config = {});
std::unique_ptr<Solver> make_ho_solver(const SolverConfig& config = {});
std::unique_ptr<Solver> make_ko_solver(const SolverConfig& config = {},
                                       HeapKind heap = HeapKind::kFibonacci);
std::unique_ptr<Solver> make_yto_solver(const SolverConfig& config = {},
                                        HeapKind heap = HeapKind::kFibonacci);
std::unique_ptr<Solver> make_burns_solver(const SolverConfig& config = {});
std::unique_ptr<Solver> make_lawler_solver(const SolverConfig& config = {});
std::unique_ptr<Solver> make_howard_solver(const SolverConfig& config = {});
std::unique_ptr<Solver> make_oa1_solver(const SolverConfig& config = {});

// --- Extension variants (the paper's §5 "improved versions") ---
/// Lawler with witness tightening: each negative cycle found snaps the
/// upper bound to that cycle's exact value instead of the midpoint.
std::unique_ptr<Solver> make_lawler_improved_solver(const SolverConfig& config = {});
/// Howard with the naive first-out-arc initial policy instead of the
/// Fig. 1 min-weight-arc initialization (for the A2 ablation).
std::unique_ptr<Solver> make_howard_naive_init_solver(const SolverConfig& config = {});
/// Cycle canceling: the simplest correct baseline (repeated negative-
/// cycle detection); the shared exact finish (finish_exact,
/// core/critical.h) started from any cycle.
std::unique_ptr<Solver> make_cycle_cancel_solver(ProblemKind kind);
/// Megiddo's parametric search (Table 1 #12): symbolic Bellman-Ford
/// with an exact feasibility oracle at line-crossing points.
std::unique_ptr<Solver> make_megiddo_solver(const SolverConfig& config = {});
std::unique_ptr<Solver> make_megiddo_ratio_solver(const SolverConfig& config = {});

// --- Minimum cost-to-time ratio solvers ---
std::unique_ptr<Solver> make_howard_ratio_solver(const SolverConfig& config = {});
std::unique_ptr<Solver> make_lawler_ratio_solver(const SolverConfig& config = {});
std::unique_ptr<Solver> make_burns_ratio_solver(const SolverConfig& config = {});
std::unique_ptr<Solver> make_yto_ratio_solver(const SolverConfig& config = {},
                                              HeapKind heap = HeapKind::kFibonacci);
/// Hartmann-Orlin pseudopolynomial O(Tm) ratio algorithm (Table 1 #13);
/// Theta(Tn) space — intended for small integral transit times.
std::unique_ptr<Solver> make_hartmann_orlin_ratio_solver(const SolverConfig& config = {});

}  // namespace mcr

#endif  // MCR_ALGO_ALGORITHMS_H
