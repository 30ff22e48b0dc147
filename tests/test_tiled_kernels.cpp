// Tiled relaxation kernels (graph/arc_tiles.h) — the contracts under
// test:
//   * ArcTilePartition covers every CSR position exactly once and every
//     node at least once, splits high-degree nodes across tiles, and
//     degrades to a single tile for target <= 0 or tiny inputs.
//   * The tiling property: CycleResult (value, witness cycle, counters)
//     is bit-identical across tile_arcs in {0, 64, 4096} x num_threads
//     in {1, 2, 8} on sprand / circuit / single-giant-SCC instances.
//   * Bellman-Ford's negative-cycle verdict, witness, and potentials
//     match the serial path under any tiling.
//   * mcr_pool_*_total accumulates once per pool lifetime (a solve_many
//     batch contributes exactly one task per instance, not one per
//     wait), and mcr_ops_tiles_* counters are thread-independent.
//   * The inline-vs-pool cutoff: a 1-component graph with many tiles
//     still engages the pool (tile mode).
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/driver.h"
#include "core/registry.h"
#include "core/verify.h"
#include "gen/circuit.h"
#include "gen/sprand.h"
#include "gen/structured.h"
#include "graph/arc_tiles.h"
#include "graph/bellman_ford.h"
#include "graph/builder.h"
#include "obs/metrics.h"
#include "support/thread_pool.h"

namespace mcr {
namespace {

// --- ArcTilePartition -------------------------------------------------

void expect_partition_invariants(std::span<const std::int32_t> first,
                                 std::int32_t target) {
  const ArcTilePartition part(first, target);
  const std::size_t n = first.size() - 1;
  const std::int32_t total = first[n];
  ASSERT_EQ(part.positions(), total);
  if (n == 0) {
    EXPECT_TRUE(part.tiles().empty());
    return;
  }
  std::int32_t next_pos = 0;
  NodeId next_node = 0;
  for (const ArcTile& t : part.tiles()) {
    // Positions are contiguous across tiles, nodes never skip.
    EXPECT_EQ(t.pos_begin, next_pos);
    EXPECT_LE(t.node_begin, t.node_end);
    EXPECT_TRUE(t.node_begin == next_node ||
                (t.shares_first && t.node_begin + 1 == next_node))
        << "node_begin " << t.node_begin << " next " << next_node;
    EXPECT_LE(t.pos_begin, t.pos_end);
    if (target > 0 && total > target) {
      EXPECT_LE(t.pos_end - t.pos_begin, target);
    }
    // Node range brackets the position range.
    EXPECT_LE(first[static_cast<std::size_t>(t.node_begin)], t.pos_begin);
    EXPECT_GE(first[static_cast<std::size_t>(t.node_end) + 1], t.pos_end);
    EXPECT_EQ(t.shares_first,
              t.pos_begin > first[static_cast<std::size_t>(t.node_begin)]);
    EXPECT_EQ(t.shares_last,
              first[static_cast<std::size_t>(t.node_end) + 1] > t.pos_end);
    next_pos = t.pos_end;
    next_node = t.shares_last ? t.node_end : t.node_end + 1;
  }
  EXPECT_EQ(next_pos, total);
  EXPECT_EQ(next_node, static_cast<NodeId>(n));  // every node covered
}

TEST(ArcTilePartition, InvariantsOnRealCsrArrays) {
  gen::SprandConfig sc;
  sc.n = 200;
  sc.m = 900;
  sc.seed = 5;
  const Graph g = gen::sprand(sc);
  for (const std::int32_t target : {1, 7, 64, 899, 900, 100000}) {
    expect_partition_invariants(g.in_first(), target);
    expect_partition_invariants(g.out_first(), target);
  }
}

TEST(ArcTilePartition, SplitsHighDegreeNode) {
  // A star: node 0 has 100 out-arcs, everyone else none.
  GraphBuilder b(101);
  for (NodeId v = 1; v <= 100; ++v) b.add_arc(0, v, 1, 1);
  const Graph g = b.build();
  expect_partition_invariants(g.out_first(), 16);
  const ArcTilePartition part(g.out_first(), 16);
  ASSERT_GE(part.size(), 7u);  // ceil(100/16)
  int covering_hub = 0;
  for (const ArcTile& t : part.tiles()) {
    if (t.node_begin == 0) ++covering_hub;
  }
  EXPECT_GE(covering_hub, 7);  // the hub is split, not serialized
  EXPECT_TRUE(part.tiles().front().shares_last);
  // Trailing zero-degree nodes ride in the final tile.
  EXPECT_EQ(part.tiles().back().node_end, 100);
}

TEST(ArcTilePartition, DegenerateTargetsAndInputs) {
  const std::vector<std::int32_t> first{0, 2, 2, 5};
  for (const std::int32_t target : {0, -3, 5, 100}) {
    const ArcTilePartition part(first, target);
    ASSERT_EQ(part.size(), 1u) << target;
    EXPECT_EQ(part.tiles()[0].node_begin, 0);
    EXPECT_EQ(part.tiles()[0].node_end, 2);
    EXPECT_EQ(part.tiles()[0].pos_begin, 0);
    EXPECT_EQ(part.tiles()[0].pos_end, 5);
    EXPECT_FALSE(part.tiles()[0].shares_first);
    EXPECT_FALSE(part.tiles()[0].shares_last);
  }
  const std::vector<std::int32_t> empty{0};
  EXPECT_TRUE(ArcTilePartition(empty, 8).tiles().empty());
  // All-zero-degree nodes: one tile, zero positions.
  const std::vector<std::int32_t> isolated{0, 0, 0, 0};
  const ArcTilePartition part(isolated, 4);
  ASSERT_EQ(part.size(), 1u);
  EXPECT_EQ(part.tiles()[0].node_end, 2);
}

// --- Tiling property: bit-identical results ---------------------------

void expect_identical(const CycleResult& a, const CycleResult& b,
                      const std::string& what) {
  ASSERT_EQ(a.has_cycle, b.has_cycle) << what;
  if (!a.has_cycle) return;
  EXPECT_EQ(a.value, b.value) << what;
  EXPECT_EQ(a.cycle, b.cycle) << what;
  EXPECT_EQ(a.counters, b.counters) << what;
}

std::vector<Graph> tiling_instances(bool ratio) {
  std::vector<Graph> out;
  gen::SprandConfig sc;
  sc.n = 96;
  sc.m = 320;
  sc.seed = 11;
  if (ratio) {
    sc.min_transit = 1;
    sc.max_transit = 5;
  }
  out.push_back(gen::sprand(sc));
  // Single giant SCC: the shape the tentpole exists for.
  out.push_back(gen::torus(7, 7, 1, 1000, 13));
  if (!ratio) {
    gen::CircuitConfig cc;
    cc.registers = 60;
    cc.module_size = 6;
    cc.seed = 7;
    out.push_back(gen::circuit(cc));
  }
  return out;
}

TEST(TiledKernels, BitIdenticalAcrossTileSizesAndThreadsMean) {
  const auto graphs = tiling_instances(/*ratio=*/false);
  for (const std::string name : {"karp", "karp2", "ho", "howard", "lawler"}) {
    const auto solver = SolverRegistry::instance().create(name);
    for (std::size_t gi = 0; gi < graphs.size(); ++gi) {
      const CycleResult reference = minimum_cycle_mean(graphs[gi], *solver);
      EXPECT_TRUE(
          verify_result(graphs[gi], reference, ProblemKind::kCycleMean).ok)
          << name << " graph#" << gi;
      for (const std::int32_t tile_arcs : {0, 64, 4096}) {
        for (const int threads : {1, 2, 8}) {
          const CycleResult r = minimum_cycle_mean(
              graphs[gi], *solver,
              SolveOptions{.num_threads = threads, .tile_arcs = tile_arcs});
          expect_identical(reference, r,
                           name + " graph#" + std::to_string(gi) +
                               " tile_arcs=" + std::to_string(tile_arcs) +
                               " threads=" + std::to_string(threads));
        }
      }
    }
  }
}

TEST(TiledKernels, BitIdenticalAcrossTileSizesAndThreadsRatio) {
  const auto graphs = tiling_instances(/*ratio=*/true);
  for (const std::string name : {"howard_ratio", "lawler_ratio"}) {
    const auto solver = SolverRegistry::instance().create(name);
    for (std::size_t gi = 0; gi < graphs.size(); ++gi) {
      const CycleResult reference = minimum_cycle_ratio(graphs[gi], *solver);
      for (const std::int32_t tile_arcs : {0, 64, 4096}) {
        for (const int threads : {1, 2, 8}) {
          const CycleResult r = minimum_cycle_ratio(
              graphs[gi], *solver,
              SolveOptions{.num_threads = threads, .tile_arcs = tile_arcs});
          expect_identical(reference, r,
                           name + " graph#" + std::to_string(gi) +
                               " tile_arcs=" + std::to_string(tile_arcs) +
                               " threads=" + std::to_string(threads));
        }
      }
    }
  }
}

TEST(TiledKernels, BellmanFordVerdictAndPotentialsMatchSerial) {
  gen::SprandConfig sc;
  sc.n = 80;
  sc.m = 300;
  sc.min_weight = -50;
  sc.max_weight = 100;
  sc.seed = 41;
  const Graph g = gen::sprand(sc);
  std::vector<std::int64_t> cost(static_cast<std::size_t>(g.num_arcs()));
  for (ArcId a = 0; a < g.num_arcs(); ++a) {
    cost[static_cast<std::size_t>(a)] = g.weight(a);
  }
  const BellmanFordResult serial = bellman_ford_all(g, cost);
  ThreadPool pool(4);
  TileStats stats;
  for (const std::int32_t tile_arcs : {1, 16, 64, 100000}) {
    const TileExec tiles{&pool, tile_arcs, &stats};
    const BellmanFordResult tiled = bellman_ford_all(g, cost, nullptr, tiles);
    EXPECT_EQ(serial.has_negative_cycle, tiled.has_negative_cycle) << tile_arcs;
    EXPECT_EQ(serial.cycle, tiled.cycle) << tile_arcs;
    EXPECT_EQ(serial.dist, tiled.dist) << tile_arcs;
  }
  EXPECT_GT(stats.waves.load(), 0u);
}

// --- Pool metrics: once per pool lifetime (satellite 1) ---------------

std::uint64_t sum_worker_counter(obs::MetricsRegistry& m, const char* base) {
  std::uint64_t total = 0;
  for (int w = 0; w < 64; ++w) {
    total += m.counter(obs::labeled_name(base, {{"worker", std::to_string(w)}}))
                 .value();
  }
  return total;
}

TEST(PoolMetrics, SolveManyCountsEachInstanceTaskExactlyOnce) {
  std::vector<Graph> graphs;
  for (int s = 0; s < 6; ++s) {
    graphs.push_back(
        gen::scc_chain(9, 5, 1, 77, 40 + static_cast<std::uint64_t>(s)));
  }
  const auto solver = SolverRegistry::instance().create("howard");
  obs::MetricsRegistry metrics;
  const SolveOptions options{.num_threads = 4, .metrics = &metrics};
  (void)solve_many(graphs, *solver, options);
  // One pool task per instance, accumulated once despite the pool
  // serving several waves of cumulative worker stats.
  EXPECT_EQ(sum_worker_counter(metrics, "mcr_pool_tasks_total"), graphs.size());
  (void)solve_many(graphs, *solver, options);
  EXPECT_EQ(sum_worker_counter(metrics, "mcr_pool_tasks_total"),
            2 * graphs.size());
}

TEST(PoolMetrics, ComponentModeCountsOneTaskPerCyclicComponent) {
  const Graph g = gen::scc_chain(12, 5, 1, 99, 17);
  const auto solver = SolverRegistry::instance().create("howard");
  obs::MetricsRegistry metrics;
  (void)minimum_cycle_mean(g, *solver,
                           SolveOptions{.num_threads = 4, .metrics = &metrics});
  const std::uint64_t cyclic =
      metrics.counter("mcr_components_cyclic_total").value();
  ASSERT_GT(cyclic, 1u);
  EXPECT_EQ(sum_worker_counter(metrics, "mcr_pool_tasks_total"), cyclic);
}

// --- Tile mode engages the pool for one giant SCC (satellite 2) -------

TEST(TiledKernels, SingleComponentWithManyTilesEngagesThePool) {
  const Graph g = gen::torus(10, 10, 1, 1000, 19);  // one SCC, 200 arcs
  const auto solver = SolverRegistry::instance().create("howard");
  obs::MetricsRegistry metrics;
  (void)minimum_cycle_mean(
      g, *solver,
      SolveOptions{.num_threads = 8, .tile_arcs = 16, .metrics = &metrics});
  EXPECT_EQ(metrics.counter("mcr_components_cyclic_total").value(), 1u);
  // Without tile mode a 1-component graph would never submit a task.
  EXPECT_GT(sum_worker_counter(metrics, "mcr_pool_tasks_total"), 0u);
  EXPECT_GT(metrics.counter("mcr_ops_tiles_total").value(), 0u);
}

// --- mcr_ops_tiles_* are thread-independent ---------------------------

std::map<std::string, std::uint64_t> tile_counters(int threads,
                                                   std::int32_t tile_arcs) {
  const Graph g = gen::torus(8, 8, 1, 500, 23);
  const auto solver = SolverRegistry::instance().create("karp");
  obs::MetricsRegistry metrics;
  (void)minimum_cycle_mean(g, *solver,
                           SolveOptions{.num_threads = threads,
                                        .tile_arcs = tile_arcs,
                                        .metrics = &metrics});
  std::map<std::string, std::uint64_t> out;
  for (const char* name : {"mcr_ops_tiles_partitions_total",
                           "mcr_ops_tiles_total", "mcr_ops_tiles_waves_total"}) {
    out[name] = metrics.counter(name).value();
  }
  return out;
}

TEST(TiledKernels, TileCountersIndependentOfThreadCount) {
  const auto reference = tile_counters(1, 32);
  EXPECT_GT(reference.at("mcr_ops_tiles_total"), 0u);
  EXPECT_GT(reference.at("mcr_ops_tiles_waves_total"), 0u);
  for (const int threads : {2, 8}) {
    EXPECT_EQ(tile_counters(threads, 32), reference) << threads;
  }
  // Untiled solves export no tile work at all.
  const auto untiled = tile_counters(8, 0);
  EXPECT_EQ(untiled.at("mcr_ops_tiles_total"), 0u);
}

}  // namespace
}  // namespace mcr
