// Public entry points: solve MCM/MCR on arbitrary graphs.
//
// The driver reproduces the paper's experimental setup (§2): partition
// the input into strongly connected components, run the solver on each
// cyclic component, and return the minimum over components. Graphs with
// no cycle at all yield has_cycle == false.
//
// Components are independent subproblems, so the driver can solve them
// concurrently (SolveOptions::num_threads). The merge is deterministic
// regardless of thread count: the best value wins with ties broken by
// component index, counters are summed over components in index order,
// and the witness is recovered once for the winning component — the
// returned CycleResult is bit-identical for any num_threads.
#ifndef MCR_CORE_DRIVER_H
#define MCR_CORE_DRIVER_H

#include <chrono>
#include <cstddef>
#include <functional>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/result.h"
#include "core/solver.h"
#include "graph/graph.h"
#include "obs/metrics.h"
#include "obs/obs.h"

namespace mcr {

/// Knobs for the solve entry points below.
struct SolveOptions {
  /// Worker threads for per-SCC (and per-instance) parallelism.
  /// 1 = fully serial (default, no threads spawned); 0 = one worker per
  /// hardware thread; n > 1 = exactly n workers.
  int num_threads = 1;

  /// Arc-tile granularity for intra-SCC parallelism (graph/arc_tiles.h).
  /// 0 (default) leaves every relaxation sweep a single work item, so a
  /// lone giant SCC runs serially no matter how many threads are
  /// available. > 0 splits each sweep into tiles of at most this many
  /// CSR positions; when the component count would leave workers idle,
  /// the driver solves components sequentially and spreads the tiles of
  /// each across the pool instead. The returned CycleResult (value,
  /// witness, counters) is bit-identical for every (num_threads,
  /// tile_arcs) combination; only the mcr_ops_tiles_* metrics reflect
  /// the chosen granularity. 4096 is a good cache-sized default.
  std::int32_t tile_arcs = 0;

  /// Optional trace sink (see obs/obs.h). The driver installs it on
  /// every thread the solve touches, brackets the phases
  /// (scc_decompose / component / merge / witness_extract) in spans,
  /// and solvers emit iteration-level instants into it. nullptr (the
  /// default) disables tracing at the cost of a pointer check.
  obs::TraceSink* trace = nullptr;

  /// Optional metrics registry. When set, the driver records solve /
  /// component / operation-count totals and thread-pool worker stats
  /// into it. Counter totals derived from solver work are identical
  /// for every num_threads; pool utilization metrics are inherently
  /// scheduling-dependent. nullptr disables metrics entirely.
  obs::MetricsRegistry* metrics = nullptr;

  /// Optional deadline (the solve service's per-request deadline_ms).
  /// The driver compares the steady clock against it at phase
  /// boundaries — on entry, before each component solve, and before
  /// each batch instance in solve_many — and throws SolveCancelled once
  /// it has passed. A component solve already in progress runs to
  /// completion; cancellation latency is therefore one component, not
  /// one iteration. Unset (the default) never cancels and reads no
  /// clock.
  std::optional<std::chrono::steady_clock::time_point> deadline = std::nullopt;
};

/// Thrown by the solve entry points when SolveOptions::deadline has
/// passed at a driver phase boundary.
class SolveCancelled : public std::runtime_error {
 public:
  SolveCancelled() : std::runtime_error("solve cancelled (deadline exceeded)") {}
};

/// Minimum cycle mean of g using `solver` (a kCycleMean solver).
/// Arc ids in the returned cycle refer to g.
[[nodiscard]] CycleResult minimum_cycle_mean(const Graph& g, const Solver& solver,
                                             const SolveOptions& options = {});

/// Minimum cycle ratio of g using `solver` (a kCycleRatio solver).
/// Validates the transit times (see validate_ratio_instance).
[[nodiscard]] CycleResult minimum_cycle_ratio(const Graph& g, const Solver& solver,
                                              const SolveOptions& options = {});

/// Maximum variants via weight negation. The returned value and cycle
/// are for the original graph (value is the true maximum).
[[nodiscard]] CycleResult maximum_cycle_mean(const Graph& g, const Solver& solver,
                                             const SolveOptions& options = {});
[[nodiscard]] CycleResult maximum_cycle_ratio(const Graph& g, const Solver& solver,
                                              const SolveOptions& options = {});

/// Batch API for many-instance serving workloads: solves the minimum
/// cycle mean (or ratio, per solver->kind()) of every graph, spreading
/// whole instances across the worker pool. results[i] corresponds to
/// graphs[i] and is identical to what the single-instance entry point
/// would return. Ratio instances are validated like minimum_cycle_ratio.
[[nodiscard]] std::vector<CycleResult> solve_many(std::span<const Graph> graphs,
                                                  const Solver& solver,
                                                  const SolveOptions& options = {});

/// solve_many's instance fan-out, for callers with their own
/// per-instance solve (the solve service's dispatcher): runs task(i)
/// for every i in [0, n) on min(n, num_threads) pool workers (resolved
/// as SolveOptions::num_threads; inline when that is 1), records the
/// pool's mcr_pool_* stats into `metrics` once when set, and rethrows
/// the lowest-index task exception.
void for_each_instance(std::size_t n, int num_threads, obs::MetricsRegistry* metrics,
                       const std::function<void(std::size_t)>& task);

/// Conveniences that look the solver up by registry name with a default
/// configuration. "howard" / "howard_ratio" are the recommended defaults.
[[nodiscard]] CycleResult minimum_cycle_mean(const Graph& g,
                                             const std::string& solver_name = "howard",
                                             const SolveOptions& options = {});
[[nodiscard]] CycleResult minimum_cycle_ratio(
    const Graph& g, const std::string& solver_name = "howard_ratio",
    const SolveOptions& options = {});
[[nodiscard]] CycleResult maximum_cycle_mean(const Graph& g,
                                             const std::string& solver_name = "howard",
                                             const SolveOptions& options = {});
[[nodiscard]] CycleResult maximum_cycle_ratio(
    const Graph& g, const std::string& solver_name = "howard_ratio",
    const SolveOptions& options = {});

}  // namespace mcr

#endif  // MCR_CORE_DRIVER_H
