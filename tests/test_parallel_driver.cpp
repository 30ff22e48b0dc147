// The parallel SCC driver's contract: SolveOptions{num_threads} changes
// wall-clock only — the returned CycleResult (value, witness, has_cycle,
// counters) is bit-identical for every thread count, for every solver.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/driver.h"
#include "core/registry.h"
#include "core/verify.h"
#include "gen/circuit.h"
#include "gen/sprand.h"
#include "gen/structured.h"
#include "graph/builder.h"
#include "support/thread_pool.h"

namespace mcr {
namespace {

// --- ThreadPool unit tests -------------------------------------------

TEST(ThreadPool, RunsEverySubmittedTask) {
  ThreadPool pool(4);
  constexpr std::size_t kN = 1000;
  std::vector<std::atomic<int>> runs(kN);
  pool.run(kN, [&runs](std::size_t i) { runs[i].fetch_add(1); });
  for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(runs[i].load(), 1) << "index " << i;
  std::uint64_t total = 0;
  for (const auto& w : pool.worker_stats()) total += w.tasks_executed;
  EXPECT_EQ(total, kN);
}

TEST(ThreadPool, EmptyWaveReturnsImmediately) {
  ThreadPool pool(2);
  bool called = false;
  pool.run(0, [&called](std::size_t) { called = true; });
  EXPECT_FALSE(called);
  EXPECT_EQ(pool.size(), 2);
}

TEST(ThreadPool, ConsecutiveWavesOfDifferentSizes) {
  ThreadPool pool(3);
  std::size_t total = 0;
  for (std::size_t wave = 0; wave < 200; ++wave) {
    const std::size_t n = (wave * 37) % 97 + 1;  // 1..97, sizes above and below size()
    std::vector<std::atomic<int>> runs(n);
    pool.run(n, [&runs](std::size_t i) { runs[i].fetch_add(1); });
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(runs[i].load(), 1) << "wave " << wave << " index " << i;
    }
    total += n;
  }
  std::uint64_t executed = 0;
  for (const auto& w : pool.worker_stats()) executed += w.tasks_executed;
  EXPECT_EQ(executed, total);
}

TEST(ThreadPool, RethrowsLowestIndexExceptionAfterEveryIndexRuns) {
  ThreadPool pool(4);
  constexpr std::size_t kN = 64;
  std::vector<std::atomic<int>> runs(kN);
  try {
    pool.run(kN, [&runs](std::size_t i) {
      runs[i].fetch_add(1);
      if (i == 7) {
        // Let index 40 usually throw first: the winner must not depend on it.
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
        throw std::runtime_error("index 7");
      }
      if (i == 40) throw std::runtime_error("index 40");
    });
    ADD_FAILURE() << "run() did not rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "index 7");
  }
  for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(runs[i].load(), 1) << "index " << i;
}

TEST(ThreadPool, HardwareThreadsIsPositive) {
  EXPECT_GE(ThreadPool::hardware_threads(), 1);
  ThreadPool pool(0);  // 0 = auto
  EXPECT_EQ(pool.size(), ThreadPool::hardware_threads());
}

// --- Determinism across thread counts --------------------------------

void expect_identical(const CycleResult& a, const CycleResult& b,
                      const std::string& what) {
  ASSERT_EQ(a.has_cycle, b.has_cycle) << what;
  if (!a.has_cycle) return;
  EXPECT_EQ(a.value, b.value) << what;
  EXPECT_EQ(a.cycle, b.cycle) << what;
  EXPECT_EQ(a.counters, b.counters) << what;
}

std::vector<Graph> multi_scc_instances() {
  std::vector<Graph> out;
  // Circuit-family graphs: hundreds of small cyclic SCCs.
  gen::CircuitConfig cc;
  cc.registers = 120;
  cc.module_size = 8;
  cc.seed = 7;
  out.push_back(gen::circuit(cc));
  // SPRAND: typically one giant SCC plus debris.
  gen::SprandConfig sc;
  sc.n = 96;
  sc.m = 240;
  sc.seed = 11;
  out.push_back(gen::sprand(sc));
  // Torus: a single SCC (threads must degrade gracefully to 1 task).
  out.push_back(gen::torus(6, 6, 1, 1000, 13));
  // Many identical-size components chained.
  out.push_back(gen::scc_chain(12, 5, 1, 99, 17));
  return out;
}

TEST(ParallelDriver, BitIdenticalAcrossThreadCountsAllMeanSolvers) {
  const auto graphs = multi_scc_instances();
  for (const auto& name : SolverRegistry::instance().names(ProblemKind::kCycleMean)) {
    if (name.rfind("brute_force", 0) == 0) continue;  // oracle: too slow here
    const auto solver = SolverRegistry::instance().create(name);
    for (std::size_t gi = 0; gi < graphs.size(); ++gi) {
      const CycleResult serial = minimum_cycle_mean(graphs[gi], *solver);
      for (const int threads : {2, 8}) {
        const CycleResult parallel =
            minimum_cycle_mean(graphs[gi], *solver, SolveOptions{threads});
        expect_identical(serial, parallel,
                         name + " graph#" + std::to_string(gi) + " threads=" +
                             std::to_string(threads));
      }
      EXPECT_TRUE(verify_result(graphs[gi], serial, ProblemKind::kCycleMean).ok)
          << name << " graph#" << gi;
    }
  }
}

TEST(ParallelDriver, BitIdenticalAcrossThreadCountsRatioSolvers) {
  gen::SprandConfig sc;
  sc.n = 60;
  sc.m = 180;
  sc.min_transit = 1;
  sc.max_transit = 5;
  sc.seed = 23;
  std::vector<Graph> graphs;
  graphs.push_back(gen::sprand(sc));
  graphs.push_back(gen::scc_chain(8, 4, 1, 50, 29));
  for (const auto& name : SolverRegistry::instance().names(ProblemKind::kCycleRatio)) {
    if (name.rfind("brute_force", 0) == 0) continue;
    if (name == "ho_ratio") continue;  // Theta(Tn) memory; covered elsewhere
    const auto solver = SolverRegistry::instance().create(name);
    for (std::size_t gi = 0; gi < graphs.size(); ++gi) {
      const CycleResult serial = minimum_cycle_ratio(graphs[gi], *solver);
      for (const int threads : {2, 8}) {
        const CycleResult parallel =
            minimum_cycle_ratio(graphs[gi], *solver, SolveOptions{threads});
        expect_identical(serial, parallel,
                         name + " graph#" + std::to_string(gi) + " threads=" +
                             std::to_string(threads));
      }
    }
  }
}

TEST(ParallelDriver, MaximumVariantsAndAutoThreads) {
  const Graph g = gen::scc_chain(10, 4, -20, 20, 31);
  const CycleResult serial = maximum_cycle_mean(g, "howard");
  const CycleResult parallel = maximum_cycle_mean(g, "howard", SolveOptions{0});
  expect_identical(serial, parallel, "maximum_cycle_mean auto threads");
}

TEST(ParallelDriver, AcyclicGraphAllThreadCounts) {
  for (const int threads : {1, 2, 8}) {
    const auto r = minimum_cycle_mean(gen::path(20), "howard", SolveOptions{threads});
    EXPECT_FALSE(r.has_cycle) << threads;
  }
}

TEST(ParallelDriver, SolverFailureIsReportedFromWorkerThreads) {
  // A mean solver handed to the ratio entry point throws on the calling
  // thread regardless of threading (kind check happens before dispatch);
  // ratio validation errors also surface identically.
  GraphBuilder b(2);
  b.add_arc(0, 1, 1, 0);
  b.add_arc(1, 0, 1, 0);  // zero-transit cycle
  const Graph g = b.build();
  const auto solver = SolverRegistry::instance().create("howard_ratio");
  for (const int threads : {1, 4}) {
    EXPECT_THROW((void)minimum_cycle_ratio(g, *solver, SolveOptions{threads}),
                 std::invalid_argument)
        << threads;
  }
}

// --- solve_many -------------------------------------------------------

TEST(ParallelDriver, SolveManyMatchesSingleInstanceSolves) {
  const auto graphs = multi_scc_instances();
  const auto solver = SolverRegistry::instance().create("howard");
  for (const int threads : {1, 2, 8}) {
    const auto batch = solve_many(graphs, *solver, SolveOptions{threads});
    ASSERT_EQ(batch.size(), graphs.size());
    for (std::size_t i = 0; i < graphs.size(); ++i) {
      const CycleResult single = minimum_cycle_mean(graphs[i], *solver);
      expect_identical(single, batch[i],
                       "solve_many[" + std::to_string(i) + "] threads=" +
                           std::to_string(threads));
    }
  }
}

TEST(ParallelDriver, SolveManyRatioValidatesEveryInstance) {
  GraphBuilder bad(2);
  bad.add_arc(0, 1, 1, 0);
  bad.add_arc(1, 0, 1, 0);
  std::vector<Graph> graphs;
  graphs.push_back(gen::ring({1, 2, 3}));
  graphs.push_back(bad.build());
  const auto solver = SolverRegistry::instance().create("howard_ratio");
  EXPECT_THROW((void)solve_many(graphs, *solver, SolveOptions{4}),
               std::invalid_argument);
}

TEST(ParallelDriver, SolveManyEmptyBatch) {
  const auto solver = SolverRegistry::instance().create("howard");
  const auto batch = solve_many(std::span<const Graph>{}, *solver, SolveOptions{8});
  EXPECT_TRUE(batch.empty());
}

TEST(ParallelDriver, SolveManyOnManySccInstance) {
  // One instance with many SCCs repeated: the batch path must agree with
  // the per-SCC-parallel path bit for bit.
  std::vector<Graph> graphs;
  for (int s = 0; s < 6; ++s) {
    graphs.push_back(gen::scc_chain(9, 5, 1, 77, 40 + static_cast<std::uint64_t>(s)));
  }
  const auto solver = SolverRegistry::instance().create("karp");
  const auto batch = solve_many(graphs, *solver, SolveOptions{8});
  for (std::size_t i = 0; i < graphs.size(); ++i) {
    const CycleResult scc_parallel =
        minimum_cycle_mean(graphs[i], *solver, SolveOptions{8});
    expect_identical(scc_parallel, batch[i], "instance " + std::to_string(i));
    EXPECT_TRUE(verify_result(graphs[i], batch[i], ProblemKind::kCycleMean).ok);
  }
}

}  // namespace
}  // namespace mcr
