// Howard-specific behaviour: the paper's headline observations are
// about its iteration counts (§4.3) and its epsilon semantics (Fig. 1).
#include <gtest/gtest.h>

#include "algo/algorithms.h"
#include "core/driver.h"
#include "core/verify.h"
#include "gen/sprand.h"
#include "gen/structured.h"
#include "graph/builder.h"
#include "obs/trace_recorder.h"

namespace mcr {
namespace {

TEST(Howard, IterationCountIsDrasticallySmall) {
  // §4.3: "The number of iterations of the Howard's algorithm is
  // drastically small compared to the other algorithms" (conjectured
  // O(lg n) on average).
  gen::SprandConfig cfg;
  cfg.n = 500;
  cfg.m = 1500;
  cfg.seed = 1;
  const Graph g = gen::sprand(cfg);
  const auto howard = minimum_cycle_mean(g, "howard");
  ASSERT_TRUE(howard.has_cycle);
  EXPECT_LT(howard.counters.iterations, 60u);  // n/2 would be 250

  const auto yto = minimum_cycle_mean(g, "yto");
  EXPECT_LT(howard.counters.iterations, yto.counters.iterations / 2);
}

TEST(Howard, PolicyCycleEvaluationsCounted) {
  gen::SprandConfig cfg;
  cfg.n = 100;
  cfg.m = 300;
  cfg.seed = 2;
  const auto r = minimum_cycle_mean(gen::sprand(cfg), "howard");
  EXPECT_GT(r.counters.cycle_evaluations, 0u);
  EXPECT_GT(r.counters.node_visits, 0u);
}

TEST(Howard, LargeEpsilonGivesApproximateResult) {
  // With a coarse epsilon Howard may stop early; the result must still
  // be a real cycle within epsilon of optimal.
  gen::SprandConfig cfg;
  cfg.n = 200;
  cfg.m = 600;
  cfg.seed = 3;
  const Graph g = gen::sprand(cfg);
  SolverConfig sc;
  sc.epsilon = 50.0;  // huge: weights are in [1, 10000]
  const auto solver = make_howard_solver(sc);
  const auto r = minimum_cycle_mean(g, *solver);
  ASSERT_TRUE(r.has_cycle);
  EXPECT_TRUE(is_valid_cycle(g, r.cycle));
  EXPECT_EQ(cycle_mean(g, r.cycle), r.value);
  const auto approx = verify_result_approx(g, r, ProblemKind::kCycleMean, 50.0);
  EXPECT_TRUE(approx.ok) << approx.message;
  // And it is an upper bound on the true optimum.
  const auto exact = minimum_cycle_mean(g, "karp");
  EXPECT_GE(r.value, exact.value);
}

TEST(Howard, DefaultEpsilonIsExactOnAdversarialTies) {
  // Many cycles with close means; exact comparisons must pick 13/7.
  GraphBuilder b(20);
  // Cycle A: 7 arcs totalling 13 -> 13/7 ~ 1.857
  for (NodeId v = 0; v < 7; ++v) {
    b.add_arc(v, (v + 1) % 7, v == 0 ? 7 : 1);
  }
  // Cycle B: 8 arcs totalling 15 -> 15/8 = 1.875
  for (NodeId v = 7; v < 15; ++v) {
    b.add_arc(v, v == 14 ? 7 : v + 1, v == 7 ? 8 : 1);
  }
  b.add_arc(0, 7, 100);
  b.add_arc(7, 0, 100);
  const auto r = minimum_cycle_mean(b.build(), "howard");
  ASSERT_TRUE(r.has_cycle);
  EXPECT_EQ(r.value, Rational(13, 7));
}

TEST(Howard, WorksOnSingleCycleGraphs) {
  // Policy iteration degenerate case: out-degree 1 everywhere.
  const auto r = minimum_cycle_mean(gen::ring({3, 1, 4, 1, 5}), "howard");
  ASSERT_TRUE(r.has_cycle);
  EXPECT_EQ(r.value, Rational(14, 5));
  EXPECT_EQ(r.counters.iterations, 1u);  // policy is the whole graph
}

TEST(Howard, RatioVariantMatchesOracle) {
  gen::SprandConfig cfg;
  cfg.n = 14;
  cfg.m = 30;
  cfg.min_transit = 1;
  cfg.max_transit = 5;
  cfg.seed = 4;
  const Graph g = gen::sprand(cfg);
  const auto r = minimum_cycle_ratio(g, "howard_ratio");
  const auto oracle = minimum_cycle_ratio(g, "brute_force_ratio");
  EXPECT_EQ(r.value, oracle.value);
}

TEST(Howard, RescaleRegressionMean) {
  // Regression for the truncating distance rescale. Found by fuzzing:
  // on this instance the optimal policy-cycle denominator changes
  // between iterations, and an integer rescale of the distances from
  // the old denominator to the new one rounded stale distances toward
  // zero, breaking the strict-decrease termination argument — the
  // policy oscillated for ~1400 iterations until the safety valve fired
  // (feasibility_checks counts the cycle-canceling rescue). With every
  // distance recomputed at the new scale no rescale happens at all.
  GraphBuilder b(9);
  b.add_arc(0, 1, -2);
  b.add_arc(1, 2, -2);
  b.add_arc(2, 3, -10);
  b.add_arc(3, 4, 12);
  b.add_arc(4, 5, 9);
  b.add_arc(5, 6, 4);
  b.add_arc(6, 7, -2);
  b.add_arc(7, 8, -1);
  b.add_arc(8, 0, 0);
  b.add_arc(5, 8, 10);
  b.add_arc(1, 5, 12);
  b.add_arc(0, 4, 12);
  b.add_arc(6, 8, -12);
  b.add_arc(6, 2, -3);
  b.add_arc(6, 5, -10);
  b.add_arc(0, 2, 6);
  b.add_arc(3, 0, 3);
  b.add_arc(3, 4, 3);
  b.add_arc(8, 8, 11);
  const Graph g = b.build();
  const auto r = minimum_cycle_mean(g, "howard");
  ASSERT_TRUE(r.has_cycle);
  EXPECT_EQ(r.value, minimum_cycle_mean(g, "brute_force").value);
  EXPECT_TRUE(verify_result(g, r, ProblemKind::kCycleMean).ok);
  EXPECT_EQ(r.counters.feasibility_checks, 0u);  // no safety-valve rescue
  EXPECT_LE(r.counters.iterations, 16u);         // pre-fix: ~1400
}

TEST(Howard, RescaleRegressionRatio) {
  // Ratio-mode sibling of RescaleRegressionMean: transit times make the
  // policy-cycle denominators change every iteration, so the old
  // truncating rescale stalled (~1200 iterations, valve rescue).
  GraphBuilder b(6);
  b.add_arc(0, 1, -4, 1);
  b.add_arc(1, 2, -8, 3);
  b.add_arc(2, 3, -4, 1);
  b.add_arc(3, 4, 10, 2);
  b.add_arc(4, 5, 10, 3);
  b.add_arc(5, 0, 10, 3);
  b.add_arc(4, 4, -2, 7);
  b.add_arc(2, 1, 5, 7);
  b.add_arc(0, 0, 2, 2);
  const Graph g = b.build();
  const auto r = minimum_cycle_ratio(g, "howard_ratio");
  ASSERT_TRUE(r.has_cycle);
  EXPECT_EQ(r.value, minimum_cycle_ratio(g, "brute_force_ratio").value);
  EXPECT_TRUE(verify_result(g, r, ProblemKind::kCycleRatio).ok);
  EXPECT_EQ(r.counters.feasibility_checks, 0u);  // no safety-valve rescue
  EXPECT_LE(r.counters.iterations, 16u);         // pre-fix: ~1200
}

// Sprand ratio instance at the size where Howard used to outgrow its
// 64-bit distance scale (n = 512, m = 2048, transit U[1, 10]).
Graph sprand_ratio(NodeId n, ArcId m, std::uint64_t seed) {
  gen::SprandConfig cfg;
  cfg.n = n;
  cfg.m = m;
  cfg.max_transit = 10;
  cfg.seed = seed;
  return gen::sprand(cfg);
}

TEST(Howard, FormerScaleValveSeedConvergesWithoutValve) {
  // Every node gets a fresh distance at scale den(lambda) each
  // iteration, so no distance scale grows across iterations. This seed
  // used to outgrow 64 bits and finish by cycle canceling; it now
  // converges by policy iteration alone.
  const Graph g = sprand_ratio(512, 2048, 8);
  obs::TraceRecorder trace;
  const auto r = minimum_cycle_ratio(g, "howard_ratio", {.trace = &trace});
  ASSERT_TRUE(r.has_cycle);
  EXPECT_EQ(r.value, minimum_cycle_ratio(g, "yto_ratio").value);
  EXPECT_TRUE(verify_result(g, r, ProblemKind::kCycleRatio).ok);
  EXPECT_EQ(r.counters.feasibility_checks, 0u);  // no cycle-canceling finish
  for (const obs::TraceRecorder::Event& e : trace.events()) {
    EXPECT_NE(e.kind, obs::EventKind::kSafetyValve) << e.name;
  }
}

TEST(Howard, RatioSprandConvergesWithoutValve) {
  // Minimum and maximum ratio on seeds 1-50 at n = 512, and the seeds
  // that took the scale valve at n = 4096: policy iteration alone
  // reaches yto_ratio's value, with no cycle-canceling finish.
  const auto check_min = [](const Graph& g, std::uint64_t seed) {
    const auto r = minimum_cycle_ratio(g, "howard_ratio");
    EXPECT_EQ(r.value, minimum_cycle_ratio(g, "yto_ratio").value) << "seed " << seed;
    EXPECT_EQ(r.counters.feasibility_checks, 0u) << "seed " << seed;
  };
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    const Graph g = sprand_ratio(512, 2048, seed);
    check_min(g, seed);
    const auto hi = maximum_cycle_ratio(g, "howard_ratio");
    EXPECT_EQ(hi.value, maximum_cycle_ratio(g, "yto_ratio").value) << "seed " << seed;
    EXPECT_EQ(hi.counters.feasibility_checks, 0u) << "seed " << seed;
  }
  for (const std::uint64_t seed : {6, 7, 10, 12, 17, 20}) {
    check_min(sprand_ratio(4096, 16384, seed), seed);
  }
}

TEST(Howard, ManyComponentsViaDriver) {
  const Graph g = gen::scc_chain(10, 6, 1, 100, 6);
  const auto r = minimum_cycle_mean(g, "howard");
  ASSERT_TRUE(r.has_cycle);
  EXPECT_TRUE(verify_result(g, r, ProblemKind::kCycleMean).ok);
}

}  // namespace
}  // namespace mcr
