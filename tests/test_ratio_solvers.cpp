// Minimum cost-to-time ratio solvers: hand-crafted cases, the
// mean-as-special-case reduction, and cross-validation against the
// brute-force ratio oracle.
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>

#include "core/driver.h"
#include "core/registry.h"
#include "core/verify.h"
#include "gen/sprand.h"
#include "gen/structured.h"
#include "graph/builder.h"

namespace mcr {
namespace {

class RatioSolverTest : public ::testing::TestWithParam<std::string> {
 protected:
  CycleResult solve(const Graph& g) const {
    return minimum_cycle_ratio(g, GetParam());
  }
};

TEST_P(RatioSolverTest, SelfLoopRatio) {
  GraphBuilder b(1);
  b.add_arc(0, 0, 9, 4);
  const auto r = solve(b.build());
  ASSERT_TRUE(r.has_cycle);
  EXPECT_EQ(r.value, Rational(9, 4));
}

TEST_P(RatioSolverTest, RingRatio) {
  GraphBuilder b(3);
  b.add_arc(0, 1, 2, 1);
  b.add_arc(1, 2, 3, 2);
  b.add_arc(2, 0, 5, 2);  // ratio 10/5 = 2
  const auto r = solve(b.build());
  ASSERT_TRUE(r.has_cycle);
  EXPECT_EQ(r.value, Rational(2));
}

TEST_P(RatioSolverTest, TransitChangesWinner) {
  // Same weights; transit flips which cycle is optimal.
  GraphBuilder b(4);
  b.add_arc(0, 1, 10, 1);
  b.add_arc(1, 0, 10, 1);  // ratio 10
  b.add_arc(2, 3, 10, 5);
  b.add_arc(3, 2, 10, 5);  // ratio 2
  const auto r = solve(b.build());
  ASSERT_TRUE(r.has_cycle);
  EXPECT_EQ(r.value, Rational(2));
}

TEST_P(RatioSolverTest, WithUnitTransitEqualsMean) {
  gen::SprandConfig cfg;
  cfg.n = 40;
  cfg.m = 100;
  cfg.seed = 2024;
  const Graph g = gen::sprand(cfg);  // all transit 1
  const auto ratio = solve(g);
  const auto mean = minimum_cycle_mean(g, "karp");
  ASSERT_TRUE(ratio.has_cycle);
  EXPECT_EQ(ratio.value, mean.value);
}

TEST_P(RatioSolverTest, ZeroTransitArcOnOptimalCycle) {
  GraphBuilder b(2);
  b.add_arc(0, 1, 3, 0);
  b.add_arc(1, 0, 3, 2);  // cycle: w=6, t=2, ratio 3
  const auto r = solve(b.build());
  ASSERT_TRUE(r.has_cycle);
  EXPECT_EQ(r.value, Rational(3));
}

TEST_P(RatioSolverTest, NegativeWeightsPositiveTransit) {
  GraphBuilder b(2);
  b.add_arc(0, 1, -6, 2);
  b.add_arc(1, 0, 2, 2);   // 2-cycle: (-6+2)/(2+2) = -1
  b.add_arc(0, 0, -1, 1);  // self-loop: -1 (tie)
  const auto r = solve(b.build());
  ASSERT_TRUE(r.has_cycle);
  EXPECT_EQ(r.value, Rational(-1));
}

TEST_P(RatioSolverTest, AgainstBruteForceOracle) {
  for (const std::uint64_t seed : {11u, 22u, 33u, 44u}) {
    gen::SprandConfig cfg;
    cfg.n = 16;
    cfg.m = 36;
    cfg.min_transit = 1;
    cfg.max_transit = 6;
    cfg.seed = seed;
    const Graph g = gen::sprand(cfg);
    const auto r = solve(g);
    const auto oracle = minimum_cycle_ratio(g, "brute_force_ratio");
    ASSERT_TRUE(r.has_cycle);
    EXPECT_EQ(r.value, oracle.value) << "seed " << seed;
    const auto cert = verify_result(g, r, ProblemKind::kCycleRatio);
    EXPECT_TRUE(cert.ok) << cert.message;
  }
}

TEST_P(RatioSolverTest, LargerRandomCrossValidation) {
  // The ratio solvers must agree among themselves on larger graphs.
  gen::SprandConfig cfg;
  cfg.n = 80;
  cfg.m = 200;
  cfg.min_transit = 1;
  cfg.max_transit = 10;
  cfg.seed = 99;
  const Graph g = gen::sprand(cfg);
  const auto r = solve(g);
  const auto reference = minimum_cycle_ratio(g, "howard_ratio");
  ASSERT_TRUE(r.has_cycle);
  EXPECT_EQ(r.value, reference.value);
  EXPECT_TRUE(verify_result(g, r, ProblemKind::kCycleRatio).ok);
}

TEST_P(RatioSolverTest, WitnessConsistency) {
  gen::SprandConfig cfg;
  cfg.n = 30;
  cfg.m = 90;
  cfg.min_transit = 1;
  cfg.max_transit = 4;
  cfg.seed = 7;
  const Graph g = gen::sprand(cfg);
  const auto r = solve(g);
  ASSERT_TRUE(r.has_cycle);
  EXPECT_TRUE(is_valid_cycle(g, r.cycle));
  EXPECT_EQ(cycle_ratio(g, r.cycle), r.value);
}

INSTANTIATE_TEST_SUITE_P(AllRatioSolvers, RatioSolverTest,
                         ::testing::Values("howard_ratio", "yto_ratio", "burns_ratio",
                                           "lawler_ratio", "cycle_cancel_ratio", "ho_ratio",
                                           "megiddo_ratio"),
                         [](const auto& param_info) { return param_info.param; });

// The iteration-bound application style check: maximum cycle ratio.
TEST(MaxRatio, IterationBoundStyle) {
  // Dataflow loop: total computation time 16 over 2 delays = bound 8,
  // versus a second loop 9/3 = 3. Max is 8.
  GraphBuilder b(5);
  b.add_arc(0, 1, 10, 1);
  b.add_arc(1, 0, 6, 1);
  b.add_arc(2, 3, 3, 1);
  b.add_arc(3, 4, 3, 1);
  b.add_arc(4, 2, 3, 1);
  b.add_arc(0, 2, 1, 1);
  const auto r = maximum_cycle_ratio(b.build(), "howard_ratio");
  ASSERT_TRUE(r.has_cycle);
  EXPECT_EQ(r.value, Rational(8));
}

// Hartmann-Orlin's table has (T+1)*n entries; a transit total that would
// need 2^31 or more of them is refused up front rather than allocated
// (or, with T near 2^63, indexed past a wrapped size).
TEST(HoRatio, RejectsOversizedTransitTable) {
  GraphBuilder b(2);
  b.add_arc(0, 1, 1, std::int64_t{1} << 40);
  b.add_arc(1, 0, 1, 1);
  EXPECT_THROW((void)minimum_cycle_ratio(b.build(), "ho_ratio"), std::invalid_argument);
}

}  // namespace
}  // namespace mcr
