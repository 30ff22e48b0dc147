// KO/YTO-specific behaviour: identical pivot sequences, the §4.2 heap
// operation comparison, and heap-choice independence where keys tie.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "algo/algorithms.h"
#include "core/driver.h"
#include "core/registry.h"
#include "gen/sprand.h"
#include "gen/structured.h"

namespace mcr {
namespace {

Graph random_graph(NodeId n, ArcId m, std::uint64_t seed) {
  gen::SprandConfig cfg;
  cfg.n = n;
  cfg.m = m;
  cfg.seed = seed;
  return gen::sprand(cfg);
}

TEST(Parametric, KoAndYtoPerformSameNumberOfPivots) {
  // §4.3: "the KO and YTO algorithms perform the same number of
  // iterations" — they process the same breakpoint sequence.
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    const Graph g = random_graph(120, 360, seed);
    const auto ko = minimum_cycle_mean(g, "ko");
    const auto yto = minimum_cycle_mean(g, "yto");
    EXPECT_EQ(ko.value, yto.value);
    EXPECT_EQ(ko.counters.iterations, yto.counters.iterations) << "seed " << seed;
  }
}

TEST(Parametric, YtoDoesFewerHeapInsertions) {
  // §4.2: "the YTO algorithm provides savings in the number of heap
  // operations, especially in the number of insertions", growing with
  // density.
  const Graph g = random_graph(200, 600, 9);
  const auto ko = minimum_cycle_mean(g, "ko");
  const auto yto = minimum_cycle_mean(g, "yto");
  EXPECT_LT(yto.counters.heap_inserts, ko.counters.heap_inserts);
  EXPECT_LT(yto.counters.heap_total(), ko.counters.heap_total());
}

TEST(Parametric, HeapChoiceDoesNotChangeAnswerOrPivots) {
  const Graph g = random_graph(100, 250, 5);
  const auto fib = minimum_cycle_mean(g, "yto");
  const auto bin = minimum_cycle_mean(g, "yto_bin");
  const auto pair = minimum_cycle_mean(g, "yto_pair");
  EXPECT_EQ(fib.value, bin.value);
  EXPECT_EQ(fib.value, pair.value);
  EXPECT_EQ(fib.counters.iterations, bin.counters.iterations);
  EXPECT_EQ(fib.counters.iterations, pair.counters.iterations);
}

TEST(Parametric, KoHeapVariantsAgree) {
  const Graph g = random_graph(80, 240, 6);
  const auto fib = minimum_cycle_mean(g, "ko");
  const auto bin = minimum_cycle_mean(g, "ko_bin");
  const auto pair = minimum_cycle_mean(g, "ko_pair");
  EXPECT_EQ(fib.value, bin.value);
  EXPECT_EQ(fib.value, pair.value);
}

// Graphs whose keys tie often: small weight ranges on sprand (unit and
// U[1,3] transit) and on tori.
std::vector<Graph> tie_heavy_graphs() {
  std::vector<Graph> graphs;
  for (const auto& [lo, hi] : {std::pair{1, 3}, std::pair{-2, 2}}) {
    for (const std::int64_t max_transit : {1, 3}) {
      for (std::uint64_t seed = 1; seed <= 12; ++seed) {
        gen::SprandConfig cfg;
        cfg.n = static_cast<NodeId>(40 + 10 * (seed % 5));
        cfg.m = cfg.n * static_cast<ArcId>(2 + seed % 3);
        cfg.min_weight = lo;
        cfg.max_weight = hi;
        cfg.max_transit = max_transit;
        cfg.seed = seed;
        graphs.push_back(gen::sprand(cfg));
      }
    }
  }
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    graphs.push_back(gen::torus(static_cast<NodeId>(4 + seed % 4), 7, 1, 3, seed));
  }
  return graphs;
}

void expect_same_solve(const CycleResult& want, const CycleResult& got, const std::string& what) {
  EXPECT_EQ(want.value, got.value) << what;
  EXPECT_EQ(want.cycle, got.cycle) << what;
  EXPECT_EQ(want.counters.iterations, got.counters.iterations) << what;
}

// One total pivot order (key, head node, arc): every heap and both event
// queues take the same pivot each time, ties included, so the value,
// the witness and the pivot count cannot depend on the heap's shape.
TEST(Parametric, HeapsAndQueuesTakeTheSamePivotsWhereKeysTie) {
  const std::vector<std::string> variants{"yto_bin", "yto_pair", "ko", "ko_bin", "ko_pair"};
  const std::vector<Graph> graphs = tie_heavy_graphs();
  for (std::size_t i = 0; i < graphs.size(); ++i) {
    const auto want = minimum_cycle_mean(graphs[i], "yto");
    for (const std::string& name : variants) {
      expect_same_solve(want, minimum_cycle_mean(graphs[i], name),
                        name + " on graph " + std::to_string(i));
    }
  }
}

TEST(Parametric, RatioHeapsTakeTheSamePivotsWhereKeysTie) {
  const auto fib = make_yto_ratio_solver({}, HeapKind::kFibonacci);
  const auto bin = make_yto_ratio_solver({}, HeapKind::kBinary);
  const auto pair = make_yto_ratio_solver({}, HeapKind::kPairing);
  const std::vector<Graph> graphs = tie_heavy_graphs();
  for (std::size_t i = 0; i < graphs.size(); ++i) {
    const auto want = minimum_cycle_ratio(graphs[i], *fib);
    expect_same_solve(want, minimum_cycle_ratio(graphs[i], *bin),
                      "binary heap on graph " + std::to_string(i));
    expect_same_solve(want, minimum_cycle_ratio(graphs[i], *pair),
                      "pairing heap on graph " + std::to_string(i));
  }
}

TEST(Parametric, IterationsBoundedByN2AndTypicallyNOver2) {
  // §4.3: iterations always < n on these graphs, around n/2.
  const NodeId n = 300;
  const Graph g = random_graph(n, 2 * n, 10);
  const auto yto = minimum_cycle_mean(g, "yto");
  EXPECT_LT(yto.counters.iterations, static_cast<std::uint64_t>(n));
  EXPECT_GT(yto.counters.iterations, 5u);
}

TEST(Parametric, BurnsAndKoIterationsAreBothAroundHalfN) {
  // §4.3: on random graphs "the number of iterations for the first
  // three algorithms is around n/2" and Burns is comparable to KO (the
  // paper saw it slightly lower; our double-precision Burns splits some
  // tied steps, so we assert the same order of magnitude rather than
  // the strict inequality).
  std::uint64_t burns_total = 0;
  std::uint64_t ko_total = 0;
  const NodeId n = 150;
  int cases = 0;
  for (const std::uint64_t seed : {21u, 22u, 23u, 24u, 25u, 26u, 27u, 28u}) {
    const Graph g = random_graph(n, 3 * n, seed);
    burns_total += minimum_cycle_mean(g, "burns").counters.iterations;
    ko_total += minimum_cycle_mean(g, "ko").counters.iterations;
    ++cases;
  }
  const std::uint64_t bound = static_cast<std::uint64_t>(cases) * static_cast<std::uint64_t>(n);
  EXPECT_LT(burns_total, bound);         // < n per case on average
  EXPECT_LT(ko_total, bound);
  EXPECT_LT(burns_total, ko_total * 2);  // same order as KO
  EXPECT_LT(ko_total, burns_total * 2);
}

TEST(Parametric, HamiltonianCycleInstance) {
  // m == n: the single Hamiltonian cycle is the answer.
  const Graph g = random_graph(64, 64, 3);
  const auto yto = minimum_cycle_mean(g, "yto");
  const auto karp = minimum_cycle_mean(g, "karp");
  ASSERT_TRUE(yto.has_cycle);
  EXPECT_EQ(yto.value, karp.value);
  EXPECT_EQ(yto.cycle.size(), 64u);
}

TEST(Parametric, SelfLoopPivot) {
  // A self-loop can be the closing pivot.
  const std::vector<ArcSpec> arcs{ArcSpec{0, 1, 10, 1}, ArcSpec{1, 0, 10, 1},
                                  ArcSpec{1, 1, 2, 1}};
  const Graph g(2, arcs);
  const auto yto = minimum_cycle_mean(g, "yto");
  ASSERT_TRUE(yto.has_cycle);
  EXPECT_EQ(yto.value, Rational(2));
  EXPECT_EQ(yto.cycle.size(), 1u);
}

TEST(Parametric, RatioVariantAgainstLawler) {
  gen::SprandConfig cfg;
  cfg.n = 60;
  cfg.m = 150;
  cfg.min_transit = 1;
  cfg.max_transit = 8;
  cfg.seed = 12;
  const Graph g = gen::sprand(cfg);
  const auto yto = minimum_cycle_ratio(g, "yto_ratio");
  const auto lawler = minimum_cycle_ratio(g, "lawler_ratio");
  EXPECT_EQ(yto.value, lawler.value);
}

}  // namespace
}  // namespace mcr
