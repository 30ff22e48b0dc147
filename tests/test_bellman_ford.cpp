#include "graph/bellman_ford.h"

#include <gtest/gtest.h>

#include <vector>

#include "core/result.h"
#include "gen/structured.h"
#include "graph/builder.h"

namespace mcr {
namespace {

std::vector<std::int64_t> weights_as_costs(const Graph& g) {
  std::vector<std::int64_t> c(static_cast<std::size_t>(g.num_arcs()));
  for (ArcId a = 0; a < g.num_arcs(); ++a) c[static_cast<std::size_t>(a)] = g.weight(a);
  return c;
}

TEST(BellmanFord, NoNegativeCycleOnPositiveRing) {
  const Graph g = gen::ring({1, 2, 3});
  const auto res = bellman_ford_all(g, weights_as_costs(g));
  EXPECT_FALSE(res.has_negative_cycle);
  ASSERT_EQ(res.dist.size(), 3u);
  // Super-source: all distances <= 0... here all costs positive => 0.
  for (const auto d : res.dist) EXPECT_EQ(d, 0);
}

TEST(BellmanFord, DetectsNegativeRing) {
  const Graph g = gen::ring({1, -2, -1});  // total -2
  const auto res = bellman_ford_all(g, weights_as_costs(g));
  ASSERT_TRUE(res.has_negative_cycle);
  EXPECT_TRUE(is_valid_cycle(g, res.cycle));
  EXPECT_LT(cycle_weight(g, res.cycle), 0);
  EXPECT_TRUE(res.dist.empty());
}

TEST(BellmanFord, DistancesArePotentials) {
  // Mixed weights, no negative cycle: check feasibility of distances.
  GraphBuilder b(4);
  b.add_arc(0, 1, -3);
  b.add_arc(1, 2, 2);
  b.add_arc(2, 3, -1);
  b.add_arc(3, 0, 5);  // cycle total +3
  b.add_arc(0, 2, 1);
  const Graph g = b.build();
  const auto cost = weights_as_costs(g);
  const auto res = bellman_ford_all(g, cost);
  ASSERT_FALSE(res.has_negative_cycle);
  for (ArcId a = 0; a < g.num_arcs(); ++a) {
    EXPECT_LE(res.dist[static_cast<std::size_t>(g.dst(a))],
              res.dist[static_cast<std::size_t>(g.src(a))] + cost[static_cast<std::size_t>(a)]);
  }
}

TEST(BellmanFord, NegativeSelfLoop) {
  GraphBuilder b(2);
  b.add_arc(0, 1, 1);
  b.add_arc(1, 1, -1);
  const Graph g = b.build();
  const auto res = bellman_ford_all(g, weights_as_costs(g));
  ASSERT_TRUE(res.has_negative_cycle);
  EXPECT_EQ(res.cycle.size(), 1u);
}

TEST(BellmanFord, ZeroCycleIsNotNegative) {
  const Graph g = gen::ring({2, -1, -1});
  EXPECT_FALSE(bellman_ford_all(g, weights_as_costs(g)).has_negative_cycle);
}

TEST(BellmanFord, FindsDeepNegativeCycle) {
  // Long chain into a far negative cycle.
  GraphBuilder b(20);
  for (NodeId v = 0; v + 1 < 17; ++v) b.add_arc(v, v + 1, 1);
  b.add_arc(16, 17, 1);
  b.add_arc(17, 18, -4);
  b.add_arc(18, 19, 1);
  b.add_arc(19, 17, 1);  // cycle 17->18->19->17 total -2
  const Graph g = b.build();
  const auto res = bellman_ford_all(g, weights_as_costs(g));
  ASSERT_TRUE(res.has_negative_cycle);
  EXPECT_TRUE(is_valid_cycle(g, res.cycle));
  EXPECT_EQ(res.cycle.size(), 3u);
  EXPECT_EQ(cycle_weight(g, res.cycle), -2);
}

TEST(BellmanFord, CostSizeMismatchThrows) {
  const Graph g = gen::ring({1, 2, 3});
  const std::vector<std::int64_t> wrong(2, 0);
  EXPECT_THROW(bellman_ford_all(g, wrong), std::invalid_argument);
}

TEST(BellmanFord, CountersTrackWork) {
  const Graph g = gen::ring({1, 2, 3});
  OpCounters counters;
  (void)bellman_ford_all(g, weights_as_costs(g), &counters);
  EXPECT_GT(counters.arc_scans, 0u);
}

TEST(BellmanFordReal, MatchesIntegerOnIntegralCosts) {
  const Graph g = gen::ring({3, -1, -1});
  std::vector<double> cost{3.0, -1.0, -1.0};
  const auto res = bellman_ford_all_real(g, cost);
  EXPECT_FALSE(res.has_negative_cycle);
  std::vector<double> cost2{3.0, -2.0, -1.5};
  const auto res2 = bellman_ford_all_real(g, cost2);
  EXPECT_TRUE(res2.has_negative_cycle);
  EXPECT_TRUE(is_valid_cycle(g, res2.cycle));
}

TEST(BellmanFordReal, FractionalThreshold) {
  // Costs w - lambda for the ring {1,2,3}: mean 2. lambda=2.1 => negative.
  const Graph g = gen::ring({1, 2, 3});
  std::vector<double> cost(3);
  for (ArcId a = 0; a < 3; ++a) {
    cost[static_cast<std::size_t>(a)] = static_cast<double>(g.weight(a)) - 2.1;
  }
  EXPECT_TRUE(bellman_ford_all_real(g, cost).has_negative_cycle);
  for (ArcId a = 0; a < 3; ++a) {
    cost[static_cast<std::size_t>(a)] = static_cast<double>(g.weight(a)) - 1.9;
  }
  EXPECT_FALSE(bellman_ford_all_real(g, cost).has_negative_cycle);
}

TEST(BellmanFord, EmptyGraph) {
  const Graph g(0, {});
  const auto res = bellman_ford_all(g, {});
  EXPECT_FALSE(res.has_negative_cycle);
  EXPECT_TRUE(res.dist.empty());
}

}  // namespace
}  // namespace mcr
