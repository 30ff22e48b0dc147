#include "core/driver.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/registry.h"
#include "core/verify.h"
#include "gen/sprand.h"
#include "gen/structured.h"
#include "graph/builder.h"
#include "graph/scc.h"

namespace mcr {
namespace {

TEST(Driver, AcyclicGraphHasNoCycle) {
  const auto r = minimum_cycle_mean(gen::path(5), "howard");
  EXPECT_FALSE(r.has_cycle);
}

TEST(Driver, EmptyGraph) {
  const auto r = minimum_cycle_mean(Graph(0, {}), "howard");
  EXPECT_FALSE(r.has_cycle);
}

TEST(Driver, SingleSelfLoop) {
  GraphBuilder b(1);
  b.add_arc(0, 0, 42);
  const auto r = minimum_cycle_mean(b.build(), "howard");
  ASSERT_TRUE(r.has_cycle);
  EXPECT_EQ(r.value, Rational(42));
  EXPECT_EQ(r.cycle.size(), 1u);
}

TEST(Driver, TakesMinimumAcrossComponents) {
  // Three rings with means 5, 2, 9 chained one-way.
  GraphBuilder b(9);
  const auto add_ring = [&](NodeId base, std::int64_t w) {
    b.add_arc(base, base + 1, w);
    b.add_arc(base + 1, base + 2, w);
    b.add_arc(base + 2, base, w);
  };
  add_ring(0, 5);
  add_ring(3, 2);
  add_ring(6, 9);
  b.add_arc(0, 3, 1000);
  b.add_arc(3, 6, 1000);
  const Graph g = b.build();
  const auto r = minimum_cycle_mean(g, "karp");
  ASSERT_TRUE(r.has_cycle);
  EXPECT_EQ(r.value, Rational(2));
  // Cycle arcs map back to parent-graph ids: all inside the middle ring.
  for (const ArcId a : r.cycle) {
    EXPECT_GE(g.src(a), 3);
    EXPECT_LE(g.src(a), 5);
  }
  EXPECT_TRUE(verify_result(g, r, ProblemKind::kCycleMean).ok);
}

TEST(Driver, IgnoresAcyclicComponents) {
  // A ring feeding a long acyclic tail.
  GraphBuilder b(6);
  b.add_arc(0, 1, 4);
  b.add_arc(1, 0, 6);
  b.add_arc(1, 2, 1);
  b.add_arc(2, 3, 1);
  b.add_arc(3, 4, 1);
  b.add_arc(4, 5, 1);
  const auto r = minimum_cycle_mean(b.build(), "yto");
  ASSERT_TRUE(r.has_cycle);
  EXPECT_EQ(r.value, Rational(5));
}

TEST(Driver, MaxCycleMeanViaNegation) {
  GraphBuilder b(4);
  b.add_arc(0, 1, 1);
  b.add_arc(1, 0, 1);   // mean 1
  b.add_arc(2, 3, 10);
  b.add_arc(3, 2, 20);  // mean 15
  const Graph g = b.build();
  const auto mx = maximum_cycle_mean(g, "howard");
  ASSERT_TRUE(mx.has_cycle);
  EXPECT_EQ(mx.value, Rational(15));
  const auto mn = minimum_cycle_mean(g, "howard");
  EXPECT_EQ(mn.value, Rational(1));
}

TEST(Driver, RatioSolverOnMeanProblemThrows) {
  const auto solver = SolverRegistry::instance().create("howard_ratio");
  EXPECT_THROW((void)minimum_cycle_mean(gen::ring({1, 2}), *solver),
               std::invalid_argument);
}

TEST(Driver, MeanSolverOnRatioProblemThrows) {
  const auto solver = SolverRegistry::instance().create("howard");
  EXPECT_THROW((void)minimum_cycle_ratio(gen::ring({1, 2}), *solver),
               std::invalid_argument);
}

TEST(Driver, RatioValidatesTransitTimes) {
  GraphBuilder b(2);
  b.add_arc(0, 1, 1, 0);
  b.add_arc(1, 0, 1, 0);  // zero-transit cycle
  EXPECT_THROW((void)minimum_cycle_ratio(b.build(), "howard_ratio"),
               std::invalid_argument);

  GraphBuilder b2(2);
  b2.add_arc(0, 1, 1, -1);
  b2.add_arc(1, 0, 1, 2);
  EXPECT_THROW((void)minimum_cycle_ratio(b2.build(), "howard_ratio"),
               std::invalid_argument);
}

TEST(Driver, RatioAllowsZeroTransitArcsOffCycles) {
  GraphBuilder b(3);
  b.add_arc(0, 1, 5, 0);  // zero transit, not on every cycle
  b.add_arc(1, 0, 5, 2);
  b.add_arc(1, 2, 1, 1);
  b.add_arc(2, 1, 1, 1);
  const Graph g = b.build();
  const auto r = minimum_cycle_ratio(g, "howard_ratio");
  ASSERT_TRUE(r.has_cycle);
  EXPECT_EQ(r.value, Rational(1));  // the 1,1 cycle: 2/2
}

TEST(Driver, MaximumCycleRatio) {
  GraphBuilder b(2);
  b.add_arc(0, 1, 10, 2);
  b.add_arc(1, 0, 10, 2);  // ratio 5
  b.add_arc(0, 0, 2, 1);   // ratio 2
  const auto r = maximum_cycle_ratio(b.build(), "howard_ratio");
  ASSERT_TRUE(r.has_cycle);
  EXPECT_EQ(r.value, Rational(5));
}

TEST(Driver, UnknownSolverNameThrows) {
  EXPECT_THROW((void)minimum_cycle_mean(gen::ring({1}), "does_not_exist"),
               std::out_of_range);
}

TEST(Driver, CountersAggregateAcrossComponents) {
  const Graph g = gen::scc_chain(3, 4, 1, 9, 5);
  const auto r = minimum_cycle_mean(g, "howard");
  ASSERT_TRUE(r.has_cycle);
  EXPECT_GE(r.counters.iterations, 3u);  // at least one per component
}

TEST(Driver, NegativeWeights) {
  GraphBuilder b(3);
  b.add_arc(0, 1, -5);
  b.add_arc(1, 2, -7);
  b.add_arc(2, 0, 3);  // mean -3
  const auto r = minimum_cycle_mean(b.build(), "howard");
  ASSERT_TRUE(r.has_cycle);
  EXPECT_EQ(r.value, Rational(-3));
}

// A strongly connected graph is solved in place; the same graph plus
// one isolated node (the last id) goes through the component copy,
// which has the same node ids, arc order and CSR. Every solver must
// return the same value, cycle and counters either way.
TEST(Driver, InPlaceSolveMatchesComponentCopy) {
  for (const auto& [n, m] : {std::pair{24, 72}, std::pair{160, 640}}) {
    gen::SprandConfig cfg;
    cfg.n = n;
    cfg.m = m;
    cfg.min_weight = -300;
    cfg.max_weight = 700;
    cfg.max_transit = 10;
    cfg.seed = 17;
    const Graph g = gen::sprand(cfg);
    ASSERT_EQ(strongly_connected_components(g).num_components, 1);
    std::vector<ArcSpec> arcs;
    for (ArcId a = 0; a < g.num_arcs(); ++a) {
      arcs.push_back({g.src(a), g.dst(a), g.weight(a), g.transit(a)});
    }
    const Graph padded(g.num_nodes() + 1, arcs);
    ASSERT_EQ(strongly_connected_components(padded).num_components, 2);
    for (const std::string& name : SolverRegistry::instance().all_names()) {
      if (n > 24 && name.rfind("brute_force", 0) == 0) continue;  // oracle: too slow
      const bool ratio = SolverRegistry::instance().info(name).kind == ProblemKind::kCycleRatio;
      for (const bool maximize : {false, true}) {
        SCOPED_TRACE(name + (maximize ? " max n=" : " min n=") + std::to_string(n));
        const auto solve = [&](const Graph& h) {
          if (ratio) return maximize ? maximum_cycle_ratio(h, name) : minimum_cycle_ratio(h, name);
          return maximize ? maximum_cycle_mean(h, name) : minimum_cycle_mean(h, name);
        };
        const CycleResult in_place = solve(g);
        const CycleResult copied = solve(padded);
        ASSERT_TRUE(in_place.has_cycle);
        ASSERT_TRUE(copied.has_cycle);
        EXPECT_EQ(in_place.value, copied.value);
        EXPECT_EQ(in_place.cycle, copied.cycle);
        EXPECT_EQ(in_place.counters, copied.counters);
      }
    }
  }
}

// INT64_MIN has no int64 negation, so the max objectives (which solve
// the weight-negated graph) refuse it instead of flipping its sign.
TEST(Driver, MaxObjectivesRejectInt64MinWeight) {
  GraphBuilder b(2);
  b.add_arc(0, 1, std::numeric_limits<std::int64_t>::min());
  b.add_arc(1, 0, 0);
  const Graph g = b.build();
  EXPECT_EQ(minimum_cycle_mean(g, "howard").value,
            Rational(std::numeric_limits<std::int64_t>::min() / 2));
  for (const char* name : {"howard", "karp", "yto"}) {
    EXPECT_THROW((void)maximum_cycle_mean(g, name), std::invalid_argument) << name;
  }
  for (const char* name : {"howard_ratio", "yto_ratio"}) {
    EXPECT_THROW((void)maximum_cycle_ratio(g, name), std::invalid_argument) << name;
  }
  // One above INT64_MIN negates, and the maximum is that cycle's mean.
  GraphBuilder c(2);
  c.add_arc(0, 1, std::numeric_limits<std::int64_t>::min() + 1);
  c.add_arc(1, 0, -1);
  const Graph h = c.build();
  for (const char* name : {"howard", "karp", "yto"}) {
    const CycleResult r = maximum_cycle_mean(h, name);
    ASSERT_TRUE(r.has_cycle) << name;
    EXPECT_EQ(r.value, Rational(std::numeric_limits<std::int64_t>::min() / 2)) << name;
  }
}

}  // namespace
}  // namespace mcr
