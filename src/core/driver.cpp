#include "core/driver.h"

#include <chrono>
#include <optional>
#include <stdexcept>
#include <utility>

#include "core/critical.h"
#include "core/registry.h"
#include "fault/fault.h"
#include "graph/arc_tiles.h"
#include "graph/scc.h"
#include "graph/transforms.h"
#include "support/stats.h"
#include "support/thread_pool.h"

namespace mcr {

namespace {

int resolve_threads(int num_threads) {
  return num_threads <= 0 ? ThreadPool::hardware_threads() : num_threads;
}

/// Fault-injection hook at a solve-phase boundary (no-op unless built
/// with MCR_FAULT_INJECTION and an Injector is installed). An injected
/// phase error surfaces as a plain runtime_error, which the service
/// layer maps to its INTERNAL error code — exactly the path a real
/// mid-solve failure would take.
void fault_phase_boundary(const char* phase) {
  const fault::Decision d = MCR_FAULT_POINT(fault::Site::kPhase);
  if (d.action == fault::Action::kFail) {
    throw std::runtime_error(std::string("injected fault: solve phase ") + phase);
  }
}

void throw_if_cancelled(const SolveOptions& options) {
  if (options.deadline && std::chrono::steady_clock::now() >= *options.deadline) {
    throw SolveCancelled();
  }
}

/// Records the pool's per-worker utilization (scheduling-dependent, so
/// deliberately kept out of the deterministic solver metrics). Worker
/// stats are cumulative over the pool's lifetime, so this must run
/// EXACTLY ONCE per pool, after its last wait — a solve that drives
/// several task waves (tiled sweeps, batch instances) through one pool
/// would otherwise re-add every earlier wave's totals each time and
/// double-count mcr_pool_*_total.
void record_pool_metrics(obs::MetricsRegistry& metrics, const ThreadPool& pool) {
  const std::vector<ThreadPool::WorkerStats> stats = pool.worker_stats();
  for (std::size_t w = 0; w < stats.size(); ++w) {
    const std::string worker = std::to_string(w);
    const auto name = [&](std::string_view base) {
      return obs::labeled_name(base, {{"worker", worker}});
    };
    metrics.counter(name("mcr_pool_tasks_total")).add(stats[w].tasks_executed);
    metrics.counter(name("mcr_pool_idle_microseconds_total"))
        .add(static_cast<std::uint64_t>(stats[w].idle_seconds * 1e6));
  }
}

CycleResult solve_decomposed(const Graph& g, const Solver& solver,
                             const SolveOptions& options) {
  throw_if_cancelled(options);
  // Install the sink on the calling thread for the whole solve; worker
  // threads install it per task below. With options.trace == nullptr
  // every emission site reduces to a pointer check.
  const obs::SinkScope sink_scope(options.trace);
  std::string solve_label;
  if (options.trace != nullptr) solve_label = "solve:" + solver.name();
  const obs::Span solve_span(obs::EventKind::kSolve, solve_label);

  fault_phase_boundary("scc_decompose");
  CycleResult best;
  // The decomposition either comes precomputed with the graph (packs
  // attach Tarjan's exact output as a hint, see Graph::SccHint) or is
  // computed here. Both paths normalize into the same three views, so
  // the grouping below — and therefore every solve result — is
  // bit-identical regardless of where the decomposition came from.
  SccDecomposition scc_storage;
  std::span<const NodeId> comp_of;
  std::vector<bool> comp_cyclic;
  NodeId scc_num_components = 0;
  std::vector<NodeId> comp_size;
  // Per-component arcs, grouped structure-of-arrays: one flat array per
  // arc field plus a component offset table. The counting-sort grouping
  // keeps every per-component slice contiguous, so component subgraphs
  // build straight from subspans (no ArcSpec repacking) and the hot
  // compare-update loops downstream scan dense arrays.
  std::vector<std::size_t> comp_arc_first;
  std::vector<NodeId> arc_src;
  std::vector<NodeId> arc_dst;
  std::vector<std::int64_t> arc_weight;
  std::vector<std::int64_t> arc_transit;
  std::vector<ArcId> arc_parent;
  std::vector<std::size_t> cyclic;
  bool in_place = false;
  {
    const obs::Span span(obs::EventKind::kSccDecompose, "scc_decompose");
    if (const Graph::SccHint* hint = g.scc_hint(); hint != nullptr) {
      comp_of = hint->component;
      scc_num_components = hint->num_components;
      comp_cyclic.assign(static_cast<std::size_t>(scc_num_components), false);
      for (const NodeId c : hint->cyclic_components) {
        comp_cyclic[static_cast<std::size_t>(c)] = true;
      }
      if (options.metrics != nullptr) {
        options.metrics->counter("mcr_scc_hint_solves_total").add(1);
      }
    } else {
      scc_storage = strongly_connected_components(g);
      comp_of = scc_storage.component;
      scc_num_components = scc_storage.num_components;
      comp_cyclic = std::move(scc_storage.component_is_cyclic);
    }
    const std::size_t num_comp = static_cast<std::size_t>(scc_num_components);

    cyclic.reserve(num_comp);
    for (std::size_t c = 0; c < num_comp; ++c) {
      if (comp_cyclic[c]) cyclic.push_back(c);
    }

    // One cyclic component holding every node is g itself: local ids
    // would equal node ids and the grouping would keep every arc in
    // order, so a copy would have g's arrays and CSR. Such a graph is
    // solved in place.
    in_place = num_comp == 1 && comp_cyclic[0];
    if (!in_place) {
      // Group nodes and arcs by cyclic component in one pass each
      // (building per-component subgraphs via induced_subgraph would
      // rescan all arcs once per component — O(m * #components) on
      // circuit-like graphs with hundreds of SCCs).
      std::vector<NodeId> local_id(static_cast<std::size_t>(g.num_nodes()), kInvalidNode);
      comp_size.assign(num_comp, 0);
      for (NodeId v = 0; v < g.num_nodes(); ++v) {
        const auto c = static_cast<std::size_t>(comp_of[static_cast<std::size_t>(v)]);
        if (!comp_cyclic[c]) continue;
        local_id[static_cast<std::size_t>(v)] = comp_size[c]++;
      }
      const auto arc_component = [&](ArcId a) -> std::size_t {
        // Intra-component arc of a cyclic component, or num_comp.
        const auto cu = static_cast<std::size_t>(comp_of[static_cast<std::size_t>(g.src(a))]);
        if (comp_of[static_cast<std::size_t>(g.dst(a))] !=
            comp_of[static_cast<std::size_t>(g.src(a))]) {
          return num_comp;
        }
        return comp_cyclic[cu] ? cu : num_comp;
      };
      comp_arc_first.assign(num_comp + 1, 0);
      std::size_t kept = 0;
      for (ArcId a = 0; a < g.num_arcs(); ++a) {
        const std::size_t c = arc_component(a);
        if (c == num_comp) continue;
        ++comp_arc_first[c + 1];
        ++kept;
      }
      for (std::size_t c = 0; c < num_comp; ++c) {
        comp_arc_first[c + 1] += comp_arc_first[c];
      }
      arc_src.resize(kept);
      arc_dst.resize(kept);
      arc_weight.resize(kept);
      arc_transit.resize(kept);
      arc_parent.resize(kept);
      std::vector<std::size_t> cursor(comp_arc_first.begin(), comp_arc_first.end() - 1);
      for (ArcId a = 0; a < g.num_arcs(); ++a) {
        const std::size_t c = arc_component(a);
        if (c == num_comp) continue;
        const std::size_t i = cursor[c]++;
        arc_src[i] = local_id[static_cast<std::size_t>(g.src(a))];
        arc_dst[i] = local_id[static_cast<std::size_t>(g.dst(a))];
        arc_weight[i] = g.weight(a);
        arc_transit[i] = g.transit(a);
        arc_parent[i] = a;
      }
    }
  }
  const std::size_t num_comp = static_cast<std::size_t>(scc_num_components);
  // Component c's subgraph: g itself when solving in place, else a copy
  // built into `copy`.
  const auto component_graph = [&](std::size_t c, std::optional<Graph>& copy) -> const Graph& {
    if (in_place) return g;
    const std::size_t off = comp_arc_first[c];
    const std::size_t len = comp_arc_first[c + 1] - off;
    return copy.emplace(comp_size[c], std::span(arc_src).subspan(off, len),
                        std::span(arc_dst).subspan(off, len),
                        std::span(arc_weight).subspan(off, len),
                        std::span(arc_transit).subspan(off, len));
  };
  fault_phase_boundary("component_solve");

  // Solve each cyclic component independently (possibly concurrently;
  // solve_scc is const and solvers keep all state in locals, so one
  // solver instance serves every worker). Each task installs the trace
  // sink on its worker thread, so component spans carry that worker's
  // thread id in the exported trace.
  obs::Histogram* component_seconds =
      options.metrics != nullptr
          ? &options.metrics->histogram("mcr_component_solve_seconds")
          : nullptr;

  // One pool serves the whole solve, in one of two mutually exclusive
  // modes (never both, which could deadlock a component task waiting on
  // its own tile tasks):
  //   * component mode — components are the pool's tasks, tiles (if
  //     any) run inline inside each;
  //   * tile mode — components run sequentially on this thread and
  //     each one's relaxation sweeps fan tiles out over the pool. This
  //     is the right shape when there are too few cyclic components to
  //     keep the workers busy — in particular the 1-giant-SCC instance,
  //     which used to run fully serially at any thread count.
  // Either way the result is bit-identical to the serial solve.
  const int threads = resolve_threads(options.num_threads);
  const bool tiling = options.tile_arcs > 0;
  const bool tile_mode =
      tiling && threads > 1 &&
      cyclic.size() < 2 * static_cast<std::size_t>(threads);
  std::optional<ThreadPool> pool;
  if (threads > 1 && (tile_mode || cyclic.size() > 1)) {
    pool.emplace(tile_mode ? threads
                           : static_cast<int>(std::min<std::size_t>(
                                 static_cast<std::size_t>(threads), cyclic.size())));
  }
  TileStats tile_stats;
  const TileExec tile_exec{tile_mode && pool ? &*pool : nullptr,
                           tiling ? options.tile_arcs : 0,
                           tiling ? &tile_stats : nullptr};
  ThreadPool* component_pool = !tile_mode && pool ? &*pool : nullptr;

  std::vector<CycleResult> sub_results(cyclic.size());
  run_indexed(component_pool, cyclic.size(), [&](std::size_t i) {
    throw_if_cancelled(options);
    const obs::SinkScope worker_scope(options.trace);
    const std::size_t c = cyclic[i];
    std::optional<Graph> copy;
    const Graph& sub = component_graph(c, copy);
    std::string label;
    if (options.trace != nullptr) {
      label = "component#" + std::to_string(c) +
              " n=" + std::to_string(sub.num_nodes()) +
              " m=" + std::to_string(sub.num_arcs());
    }
    const obs::Span span(obs::EventKind::kComponent, label);
    Timer timer;
    sub_results[i] = solver.solve_scc(sub, tile_exec);
    if (component_seconds != nullptr) {
      component_seconds->observe(timer.seconds());
    }
  });

  // Deterministic merge in component-index order: identical output for
  // any thread count.
  fault_phase_boundary("merge");
  std::size_t best_comp = num_comp;  // sentinel: none
  std::vector<ArcId> best_local_cycle;
  {
    const obs::Span span(obs::EventKind::kMerge, "merge");
    for (std::size_t i = 0; i < cyclic.size(); ++i) {
      CycleResult& r = sub_results[i];
      if (!r.has_cycle) {
        throw std::logic_error("solver " + solver.name() +
                               " returned no cycle on a cyclic SCC");
      }
      best.counters += r.counters;
      if (!best.has_cycle || r.value < best.value) {
        best.has_cycle = true;
        best.value = r.value;
        best_comp = cyclic[i];
        best_local_cycle = std::move(r.cycle);
      }
    }
  }

  if (best.has_cycle) {
    // Value-only solvers leave the witness to us: recover it once, for
    // the winning component only.
    if (best_local_cycle.empty()) {
      const obs::Span span(obs::EventKind::kWitnessExtract, "witness_extract");
      std::optional<Graph> copy;
      best_local_cycle =
          extract_optimal_cycle(component_graph(best_comp, copy), best.value, solver.kind());
      if (options.metrics != nullptr) {
        options.metrics->counter("mcr_witness_extractions_total").add(1);
      }
    }
    if (in_place) {
      best.cycle = std::move(best_local_cycle);
    } else {
      best.cycle.reserve(best_local_cycle.size());
      for (const ArcId a : best_local_cycle) {
        best.cycle.push_back(
            arc_parent[comp_arc_first[best_comp] + static_cast<std::size_t>(a)]);
      }
    }
  }

  // The pool's last wave has returned; record its utilization
  // exactly once per pool lifetime — see record_pool_metrics.
  if (pool && options.metrics != nullptr) {
    record_pool_metrics(*options.metrics, *pool);
  }
  pool.reset();

  if (options.metrics != nullptr) {
    // Solver-work totals: sums over components in merge order, so they
    // are identical for every thread count (the pool metrics recorded
    // by run_indexed are the scheduling-dependent complement).
    obs::MetricsRegistry& m = *options.metrics;
    m.counter("mcr_solves_total").add(1);
    m.counter("mcr_components_cyclic_total").add(cyclic.size());
    const OpCounters& c = best.counters;
    m.counter("mcr_ops_iterations_total").add(c.iterations);
    m.counter("mcr_ops_arc_scans_total").add(c.arc_scans);
    m.counter("mcr_ops_relaxations_total").add(c.relaxations);
    m.counter("mcr_ops_node_visits_total").add(c.node_visits);
    m.counter("mcr_ops_heap_total").add(c.heap_total());
    m.counter("mcr_ops_feasibility_checks_total").add(c.feasibility_checks);
    m.counter("mcr_ops_cycle_evaluations_total").add(c.cycle_evaluations);
    m.counter("mcr_numeric_promotions_total").add(c.numeric_promotions);
    if (tiling) {
      // Tile-engine work (docs/OBSERVABILITY.md): counted only when
      // tile_arcs > 0, and a pure function of (graph, solver,
      // tile_arcs) — independent of the thread count, like every other
      // mcr_ops_* counter.
      m.counter("mcr_ops_tiles_partitions_total")
          .add(tile_stats.partitions.load(std::memory_order_relaxed));
      m.counter("mcr_ops_tiles_total")
          .add(tile_stats.tiles.load(std::memory_order_relaxed));
      m.counter("mcr_ops_tiles_waves_total")
          .add(tile_stats.waves.load(std::memory_order_relaxed));
    }
  }
  fault_phase_boundary("finalize");
  return best;
}

void check_kind(const Solver& solver, ProblemKind expected, const char* fn) {
  if (solver.kind() != expected) {
    throw std::invalid_argument(std::string(fn) + ": solver " + solver.name() +
                                " solves the wrong problem kind");
  }
}

CycleResult negate_back(CycleResult r) {
  if (r.has_cycle) r.value = -r.value;
  return r;
}

}  // namespace

CycleResult minimum_cycle_mean(const Graph& g, const Solver& solver,
                               const SolveOptions& options) {
  check_kind(solver, ProblemKind::kCycleMean, "minimum_cycle_mean");
  return solve_decomposed(g, solver, options);
}

CycleResult minimum_cycle_ratio(const Graph& g, const Solver& solver,
                                const SolveOptions& options) {
  check_kind(solver, ProblemKind::kCycleRatio, "minimum_cycle_ratio");
  validate_ratio_instance(g);
  return solve_decomposed(g, solver, options);
}

CycleResult maximum_cycle_mean(const Graph& g, const Solver& solver,
                               const SolveOptions& options) {
  check_kind(solver, ProblemKind::kCycleMean, "maximum_cycle_mean");
  const Graph neg = negate_weights(g);
  return negate_back(solve_decomposed(neg, solver, options));
}

CycleResult maximum_cycle_ratio(const Graph& g, const Solver& solver,
                                const SolveOptions& options) {
  check_kind(solver, ProblemKind::kCycleRatio, "maximum_cycle_ratio");
  validate_ratio_instance(g);
  const Graph neg = negate_weights(g);
  return negate_back(solve_decomposed(neg, solver, options));
}

std::vector<CycleResult> solve_many(std::span<const Graph> graphs, const Solver& solver,
                                    const SolveOptions& options) {
  const bool ratio = solver.kind() == ProblemKind::kCycleRatio;
  // Validate up front (cheap, and keeps the parallel phase exception-free
  // for well-formed batches).
  if (ratio) {
    for (const Graph& g : graphs) validate_ratio_instance(g);
  }
  std::vector<CycleResult> results(graphs.size());
  const obs::SinkScope sink_scope(options.trace);
  std::string batch_label;
  if (options.trace != nullptr) {
    batch_label = "batch:" + solver.name() + " instances=" +
                  std::to_string(graphs.size());
  }
  const obs::Span batch_span(obs::EventKind::kBatch, batch_label);
  // Parallelism is across instances here; each instance solves its own
  // SCCs serially so a batch of b graphs costs b tasks, not b * #SCCs.
  // tile_arcs still propagates: the per-instance sweeps run their tiles
  // inline (no nested pool), so tiling changes nothing but the
  // mcr_ops_tiles_* accounting — results stay bit-identical with the
  // single-instance entry points. Trace/metrics propagate into the
  // per-instance solves (each runs solve_decomposed on a worker thread,
  // which installs the sink there).
  const SolveOptions instance_options{
      .num_threads = 1,
      .tile_arcs = options.tile_arcs,
      .trace = options.trace,
      .metrics = options.metrics,
      .deadline = options.deadline};
  for_each_instance(graphs.size(), options.num_threads, options.metrics,
                    [&](std::size_t i) {
                      results[i] = solve_decomposed(graphs[i], solver, instance_options);
                    });
  return results;
}

void for_each_instance(std::size_t n, int num_threads, obs::MetricsRegistry* metrics,
                       const std::function<void(std::size_t)>& task) {
  const int threads = resolve_threads(num_threads);
  std::optional<ThreadPool> pool;
  if (threads > 1 && n > 1) {
    pool.emplace(static_cast<int>(std::min<std::size_t>(static_cast<std::size_t>(threads), n)));
  }
  run_indexed(pool ? &*pool : nullptr, n, task);
  if (pool && metrics != nullptr) record_pool_metrics(*metrics, *pool);
}

CycleResult minimum_cycle_mean(const Graph& g, const std::string& solver_name,
                               const SolveOptions& options) {
  return minimum_cycle_mean(g, *SolverRegistry::instance().create(solver_name), options);
}

CycleResult minimum_cycle_ratio(const Graph& g, const std::string& solver_name,
                                const SolveOptions& options) {
  return minimum_cycle_ratio(g, *SolverRegistry::instance().create(solver_name), options);
}

CycleResult maximum_cycle_mean(const Graph& g, const std::string& solver_name,
                               const SolveOptions& options) {
  return maximum_cycle_mean(g, *SolverRegistry::instance().create(solver_name), options);
}

CycleResult maximum_cycle_ratio(const Graph& g, const std::string& solver_name,
                                const SolveOptions& options) {
  return maximum_cycle_ratio(g, *SolverRegistry::instance().create(solver_name), options);
}

}  // namespace mcr
