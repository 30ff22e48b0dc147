#include "graph/transforms.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>

#include "core/driver.h"
#include "gen/sprand.h"
#include "gen/structured.h"
#include "graph/builder.h"
#include "support/checked.h"

namespace mcr {
namespace {

TEST(Transforms, NegateWeights) {
  const Graph g = gen::ring({1, -2, 3});
  const Graph neg = negate_weights(g);
  EXPECT_EQ(neg.weight(0), -1);
  EXPECT_EQ(neg.weight(1), 2);
  EXPECT_EQ(neg.weight(2), -3);
  EXPECT_EQ(neg.num_nodes(), g.num_nodes());
}

TEST(Transforms, NegateRejectsInt64MinWeight) {
  // -INT64_MIN is not an int64: negation would wrap it back to itself
  // and give a max objective the wrong sign.
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  const Graph g = gen::ring({kMin, 0});
  try {
    (void)negate_weights(g);
    FAIL() << "negate_weights accepted INT64_MIN";
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(std::string(e.what()),
              "negate_weights: weight -9223372036854775808 has no int64 negation");
  }
  const Graph neg = negate_weights(gen::ring({kMin + 1, std::numeric_limits<std::int64_t>::max()}));
  EXPECT_EQ(neg.weight(0), std::numeric_limits<std::int64_t>::max());
  EXPECT_EQ(neg.weight(1), kMin + 1);
}

TEST(Transforms, WithUnitTransit) {
  GraphBuilder b(2);
  b.add_arc(0, 1, 5, 7);
  b.add_arc(1, 0, 5, 9);
  const Graph u = with_unit_transit(b.build());
  EXPECT_EQ(u.transit(0), 1);
  EXPECT_EQ(u.transit(1), 1);
  EXPECT_EQ(u.weight(0), 5);
}

TEST(Transforms, ScaleWeights) {
  const Graph g = scale_weights(gen::ring({1, 2, 3}), -4);
  EXPECT_EQ(g.weight(0), -4);
  EXPECT_EQ(g.weight(2), -12);
}

TEST(Transforms, ScaleWeightsOverflowThrows) {
  const Graph g = gen::ring({1, std::numeric_limits<std::int64_t>::max() / 2 + 1});
  EXPECT_THROW((void)scale_weights(g, 2), NumericOverflow);
  EXPECT_THROW((void)scale_weights(gen::ring({std::numeric_limits<std::int64_t>::min()}), -1),
               NumericOverflow);
}

TEST(Transforms, ReverseSwapsEndpoints) {
  GraphBuilder b(3);
  b.add_arc(0, 1, 5);
  b.add_arc(1, 2, 6);
  const Graph r = reverse(b.build());
  EXPECT_EQ(r.src(0), 1);
  EXPECT_EQ(r.dst(0), 0);
  EXPECT_EQ(r.weight(0), 5);
  EXPECT_EQ(r.src(1), 2);
}

TEST(Transforms, ReverseTwiceIsIdentity) {
  const Graph g = gen::sprand({.n = 20, .m = 60, .seed = 4});
  const Graph rr = reverse(reverse(g));
  for (ArcId a = 0; a < g.num_arcs(); ++a) {
    EXPECT_EQ(rr.src(a), g.src(a));
    EXPECT_EQ(rr.dst(a), g.dst(a));
    EXPECT_EQ(rr.weight(a), g.weight(a));
  }
}

TEST(SimplifyParallel, MeanKeepsMinWeight) {
  GraphBuilder b(2);
  b.add_arc(0, 1, 10);
  b.add_arc(0, 1, 3);  // winner
  b.add_arc(0, 1, 7);
  b.add_arc(1, 0, 5);
  const auto s = simplify_parallel_arcs(b.build(), false);
  EXPECT_EQ(s.graph.num_arcs(), 2);
  // The kept 0->1 arc has weight 3 and maps back to arc id 1.
  bool found = false;
  for (ArcId a = 0; a < s.graph.num_arcs(); ++a) {
    if (s.graph.src(a) == 0) {
      EXPECT_EQ(s.graph.weight(a), 3);
      EXPECT_EQ(s.to_parent_arc[static_cast<std::size_t>(a)], 1);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(SimplifyParallel, PreservesMinimumCycleMean) {
  gen::SprandConfig cfg;
  cfg.n = 40;
  cfg.m = 400;  // dense => many parallels
  cfg.seed = 8;
  const Graph g = gen::sprand(cfg);
  const auto s = simplify_parallel_arcs(g, false);
  EXPECT_LT(s.graph.num_arcs(), g.num_arcs());
  EXPECT_EQ(minimum_cycle_mean(g, "howard").value,
            minimum_cycle_mean(s.graph, "howard").value);
}

TEST(SimplifyParallel, RatioKeepsParetoFrontier) {
  GraphBuilder b(2);
  b.add_arc(0, 1, 10, 1);  // dominated by (3, 2)
  b.add_arc(0, 1, 3, 2);   // frontier
  b.add_arc(0, 1, 1, 1);   // frontier (lower weight)
  b.add_arc(0, 1, 5, 5);   // frontier (higher transit)
  b.add_arc(1, 0, 2, 2);
  const auto s = simplify_parallel_arcs(b.build(), true);
  // Frontier of 0->1: (1,1), (3,2), (5,5); plus the 1->0 arc.
  EXPECT_EQ(s.graph.num_arcs(), 4);
}

TEST(SimplifyParallel, RatioDropsEqualWeightLowerTransit) {
  GraphBuilder b(2);
  b.add_arc(0, 1, 3, 1);  // dominated: same weight, less transit
  b.add_arc(0, 1, 3, 4);
  b.add_arc(1, 0, 1, 1);
  const auto s = simplify_parallel_arcs(b.build(), true);
  EXPECT_EQ(s.graph.num_arcs(), 2);
}

TEST(SimplifyParallel, PreservesMinimumCycleRatio) {
  gen::SprandConfig cfg;
  cfg.n = 25;
  cfg.m = 250;
  cfg.min_transit = 1;
  cfg.max_transit = 5;
  cfg.seed = 12;
  const Graph g = gen::sprand(cfg);
  const auto s = simplify_parallel_arcs(g, true);
  EXPECT_LE(s.graph.num_arcs(), g.num_arcs());
  EXPECT_EQ(minimum_cycle_ratio(g, "howard_ratio").value,
            minimum_cycle_ratio(s.graph, "howard_ratio").value);
}

TEST(SimplifyParallel, KeepsSelfLoops) {
  GraphBuilder b(1);
  b.add_arc(0, 0, 5);
  b.add_arc(0, 0, 2);
  const auto s = simplify_parallel_arcs(b.build(), false);
  EXPECT_EQ(s.graph.num_arcs(), 1);
  EXPECT_EQ(s.graph.weight(0), 2);
}

TEST(SimplifyParallel, NoParallelsIsIdentity) {
  const Graph g = gen::ring({1, 2, 3});
  const auto s = simplify_parallel_arcs(g, false);
  EXPECT_EQ(s.graph.num_arcs(), 3);
  for (ArcId a = 0; a < 3; ++a) {
    EXPECT_EQ(s.to_parent_arc[static_cast<std::size_t>(a)], a);
  }
}

}  // namespace
}  // namespace mcr
