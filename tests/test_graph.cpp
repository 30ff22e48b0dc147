#include "graph/graph.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <stdexcept>

#include "graph/builder.h"

namespace mcr {
namespace {

Graph triangle() {
  GraphBuilder b(3);
  b.add_arc(0, 1, 10);
  b.add_arc(1, 2, 20);
  b.add_arc(2, 0, 30);
  return b.build();
}

TEST(Graph, EmptyGraph) {
  const Graph g(0, {});
  EXPECT_EQ(g.num_nodes(), 0);
  EXPECT_EQ(g.num_arcs(), 0);
  EXPECT_EQ(g.min_weight(), 0);
  EXPECT_EQ(g.max_weight(), 0);
  EXPECT_EQ(g.total_transit(), 0);
}

TEST(Graph, NodesWithoutArcs) {
  const Graph g(5, {});
  EXPECT_EQ(g.num_nodes(), 5);
  for (NodeId v = 0; v < 5; ++v) {
    EXPECT_TRUE(g.out_arcs(v).empty());
    EXPECT_TRUE(g.in_arcs(v).empty());
  }
}

TEST(Graph, ArcAccessors) {
  const Graph g = triangle();
  EXPECT_EQ(g.num_arcs(), 3);
  EXPECT_EQ(g.src(0), 0);
  EXPECT_EQ(g.dst(0), 1);
  EXPECT_EQ(g.weight(0), 10);
  EXPECT_EQ(g.transit(0), 1);
  EXPECT_EQ(g.weight(2), 30);
}

TEST(Graph, OutAndInAdjacency) {
  const Graph g = triangle();
  ASSERT_EQ(g.out_arcs(0).size(), 1u);
  EXPECT_EQ(g.dst(g.out_arcs(0)[0]), 1);
  ASSERT_EQ(g.in_arcs(0).size(), 1u);
  EXPECT_EQ(g.src(g.in_arcs(0)[0]), 2);
  EXPECT_EQ(g.out_degree(1), 1u);
  EXPECT_EQ(g.in_degree(1), 1u);
}

TEST(Graph, ParallelArcsAndSelfLoops) {
  GraphBuilder b(2);
  b.add_arc(0, 1, 1);
  b.add_arc(0, 1, 2);  // parallel
  b.add_arc(1, 1, 3);  // self-loop
  b.add_arc(1, 0, 4);
  const Graph g = b.build();
  EXPECT_EQ(g.out_degree(0), 2u);
  EXPECT_EQ(g.in_degree(1), 3u);  // two parallels + self-loop
  EXPECT_EQ(g.out_degree(1), 2u);
}

TEST(Graph, AdjacencyPreservesInsertionOrder) {
  GraphBuilder b(2);
  const ArcId a0 = b.add_arc(0, 1, 5);
  const ArcId a1 = b.add_arc(0, 1, 6);
  const Graph g = b.build();
  ASSERT_EQ(g.out_arcs(0).size(), 2u);
  EXPECT_EQ(g.out_arcs(0)[0], a0);
  EXPECT_EQ(g.out_arcs(0)[1], a1);
}

TEST(Graph, WeightExtremesAndTransitTotal) {
  GraphBuilder b(2);
  b.add_arc(0, 1, -7, 2);
  b.add_arc(1, 0, 13, 5);
  const Graph g = b.build();
  EXPECT_EQ(g.min_weight(), -7);
  EXPECT_EQ(g.max_weight(), 13);
  EXPECT_EQ(g.total_transit(), 7);

  // The total must itself be an int64: INT64_MAX is the largest accepted,
  // and two transits of 5e18 are rejected instead of wrapping.
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  GraphBuilder at_max(2);
  at_max.add_arc(0, 1, 1, kMax - 1);
  at_max.add_arc(1, 0, 1, 1);
  EXPECT_EQ(at_max.build().total_transit(), kMax);
  GraphBuilder beyond(2);
  beyond.add_arc(0, 1, 1, 5'000'000'000'000'000'000);
  beyond.add_arc(1, 0, 1, 5'000'000'000'000'000'000);
  EXPECT_THROW((void)beyond.build(), std::invalid_argument);
}

TEST(Graph, OutOfRangeEndpointsThrow) {
  std::vector<ArcSpec> arcs{ArcSpec{0, 3, 1, 1}};
  EXPECT_THROW(Graph(2, arcs), std::out_of_range);
  std::vector<ArcSpec> arcs2{ArcSpec{-1, 0, 1, 1}};
  EXPECT_THROW(Graph(2, arcs2), std::out_of_range);
}

TEST(Graph, NegativeNodeCountThrows) {
  EXPECT_THROW(Graph(-1, {}), std::invalid_argument);
}

TEST(Graph, MoveConstructionPreservesContent) {
  Graph g = triangle();
  const Graph moved = std::move(g);
  EXPECT_EQ(moved.num_nodes(), 3);
  EXPECT_EQ(moved.num_arcs(), 3);
  EXPECT_EQ(moved.weight(1), 20);
}

TEST(GraphBuilder, AddNodeAssignsDenseIds) {
  GraphBuilder b;
  EXPECT_EQ(b.add_node(), 0);
  EXPECT_EQ(b.add_node(), 1);
  EXPECT_EQ(b.num_nodes(), 2);
}

TEST(GraphBuilder, EnsureNodeGrows) {
  GraphBuilder b;
  b.ensure_node(4);
  EXPECT_EQ(b.num_nodes(), 5);
  b.ensure_node(2);  // no shrink
  EXPECT_EQ(b.num_nodes(), 5);
  EXPECT_THROW(b.ensure_node(-1), std::out_of_range);
}

TEST(GraphBuilder, ArcEndpointValidation) {
  GraphBuilder b(2);
  EXPECT_THROW(b.add_arc(0, 2, 1), std::out_of_range);
  EXPECT_THROW(b.add_arc(-1, 0, 1), std::out_of_range);
}

TEST(GraphBuilder, ArcIdsAreSequential) {
  GraphBuilder b(2);
  EXPECT_EQ(b.add_arc(0, 1, 1), 0);
  EXPECT_EQ(b.add_arc(1, 0, 1), 1);
  EXPECT_EQ(b.num_arcs(), 2);
}

TEST(GraphBuilder, BuildIsRepeatable) {
  GraphBuilder b(2);
  b.add_arc(0, 1, 1);
  const Graph g1 = b.build();
  b.add_arc(1, 0, 2);
  const Graph g2 = b.build();
  EXPECT_EQ(g1.num_arcs(), 1);
  EXPECT_EQ(g2.num_arcs(), 2);
}

TEST(Graph, LargeCsrConsistency) {
  // Every arc id must appear exactly once in out_arcs and in in_arcs.
  GraphBuilder b(50);
  for (NodeId u = 0; u < 50; ++u) {
    for (NodeId k = 1; k <= 3; ++k) {
      b.add_arc(u, (u * 7 + k * 13) % 50, u + k);
    }
  }
  const Graph g = b.build();
  std::vector<int> seen_out(static_cast<std::size_t>(g.num_arcs()), 0);
  std::vector<int> seen_in(static_cast<std::size_t>(g.num_arcs()), 0);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    for (const ArcId a : g.out_arcs(v)) {
      EXPECT_EQ(g.src(a), v);
      ++seen_out[static_cast<std::size_t>(a)];
    }
    for (const ArcId a : g.in_arcs(v)) {
      EXPECT_EQ(g.dst(a), v);
      ++seen_in[static_cast<std::size_t>(a)];
    }
  }
  for (ArcId a = 0; a < g.num_arcs(); ++a) {
    EXPECT_EQ(seen_out[static_cast<std::size_t>(a)], 1);
    EXPECT_EQ(seen_in[static_cast<std::size_t>(a)], 1);
  }
}

}  // namespace
}  // namespace mcr
