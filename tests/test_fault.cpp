// Tests for the robustness layer: fault-plan parsing, the determinism
// contract of the injector, checked 64-bit arithmetic and the numeric
// promotion path, and — when the hooks are compiled in
// (MCR_FAULT_INJECTION) — fault-driven regression tests for the socket
// I/O helpers, the self-healing thread pool, and client retry against a
// live in-process server. In a default Release build the hook-dependent
// tests GTEST_SKIP (the hooks fold to constants there by design).
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <limits>
#include <mutex>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "core/driver.h"
#include "core/registry.h"
#include "core/verify.h"
#include "fault/fault.h"
#include "gen/sprand.h"
#include "graph/bellman_ford.h"
#include "graph/builder.h"
#include "graph/io.h"
#include "support/checked.h"
#include "support/int128.h"
#include "support/rational.h"
#include "svc/client.h"
#include "svc/errors.h"
#include "svc/protocol.h"
#include "svc/server.h"
#include "support/thread_pool.h"

namespace {

using namespace mcr;

// ---------------------------------------------------------------------------
// Plan parsing (available in every build).

TEST(FaultPlan, ParseRoundTrips) {
  const fault::Plan plan = fault::Plan::parse(
      "seed=42,alloc=0.25,read_eintr=0.5,write_short=0.125,worker_death=1,"
      "clock_skip=0.75,phase=0.0625,stall_ms=7,clock_skip_ms=1234,"
      "max_per_site=9,max_deaths=3");
  EXPECT_EQ(plan.seed, 42u);
  EXPECT_DOUBLE_EQ(plan.alloc, 0.25);
  EXPECT_DOUBLE_EQ(plan.read_eintr, 0.5);
  EXPECT_DOUBLE_EQ(plan.write_short, 0.125);
  EXPECT_DOUBLE_EQ(plan.worker_death, 1.0);
  EXPECT_DOUBLE_EQ(plan.phase_error, 0.0625);
  EXPECT_EQ(plan.stall_ms, 7);
  EXPECT_EQ(plan.clock_skip_ms, 1234);
  EXPECT_EQ(plan.max_per_site, 9u);
  EXPECT_EQ(plan.max_deaths, 3u);
  // parse(to_string()) is the identity on the canonical form.
  const std::string canonical = plan.to_string();
  EXPECT_EQ(fault::Plan::parse(canonical).to_string(), canonical);
}

TEST(FaultPlan, RejectsMalformedSpecs) {
  EXPECT_THROW((void)fault::Plan::parse("no_such_key=1"), std::invalid_argument);
  EXPECT_THROW((void)fault::Plan::parse("alloc=1.5"), std::invalid_argument);
  EXPECT_THROW((void)fault::Plan::parse("alloc=-0.1"), std::invalid_argument);
  EXPECT_THROW((void)fault::Plan::parse("alloc=banana"), std::invalid_argument);
  EXPECT_THROW((void)fault::Plan::parse("alloc"), std::invalid_argument);
  EXPECT_THROW((void)fault::Plan::parse("seed=twelve"), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Checked arithmetic: exact wrap boundaries and a randomized cross-check
// against an int128 reference.

constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();

TEST(Checked, WrapBoundaries) {
  EXPECT_EQ(checked_add(kMax - 1, 1), kMax);
  EXPECT_THROW((void)checked_add(kMax, 1), NumericOverflow);
  EXPECT_EQ(checked_add(kMin + 1, -1), kMin);
  EXPECT_THROW((void)checked_add(kMin, -1), NumericOverflow);

  EXPECT_EQ(checked_sub(kMin + 1, 1), kMin);
  EXPECT_THROW((void)checked_sub(kMin, 1), NumericOverflow);
  EXPECT_THROW((void)checked_sub(0, kMin), NumericOverflow);  // |kMin| > kMax

  EXPECT_EQ(checked_mul(kMax / 2, 2), kMax - 1);
  EXPECT_THROW((void)checked_mul(kMax / 2 + 1, 2), NumericOverflow);
  EXPECT_THROW((void)checked_mul(kMin, -1), NumericOverflow);
}

TEST(Checked, RandomizedAgainstInt128Reference) {
  std::mt19937_64 rng(20260805);
  // Mix magnitudes so both the overflowing and non-overflowing branches
  // get real coverage.
  std::uniform_int_distribution<std::int64_t> full(kMin, kMax);
  std::uniform_int_distribution<std::int64_t> small(-1'000'000, 1'000'000);
  for (int i = 0; i < 20'000; ++i) {
    const std::int64_t a = (i % 3 == 0) ? small(rng) : full(rng);
    const std::int64_t b = (i % 2 == 0) ? small(rng) : full(rng);
    const auto in_range = [](int128 v) {
      return v >= int128(kMin) && v <= int128(kMax);
    };
    const int128 sum = int128(a) + int128(b);
    if (in_range(sum)) {
      EXPECT_EQ(checked_add(a, b), static_cast<std::int64_t>(sum));
    } else {
      EXPECT_THROW((void)checked_add(a, b), NumericOverflow);
    }
    const int128 diff = int128(a) - int128(b);
    if (in_range(diff)) {
      EXPECT_EQ(checked_sub(a, b), static_cast<std::int64_t>(diff));
    } else {
      EXPECT_THROW((void)checked_sub(a, b), NumericOverflow);
    }
    const int128 prod = int128(a) * int128(b);
    if (in_range(prod)) {
      EXPECT_EQ(checked_mul(a, b), static_cast<std::int64_t>(prod));
    } else {
      EXPECT_THROW((void)checked_mul(a, b), NumericOverflow);
    }
  }
}

TEST(Checked, RationalFromInt128RoundTrips) {
  // Reducible in 128 bits: (kMax * 6) / 12 = kMax / 2 (kMax is odd)
  // after the 128-bit gcd, which fits — the intermediate kMax * 6 does
  // not, so from_int128 must reduce before narrowing.
  const Rational r = Rational::from_int128(int128(kMax) * 6, int128(12));
  EXPECT_EQ(r, Rational(kMax, 2));
  // Sign normalization through the wide path.
  EXPECT_EQ(Rational::from_int128(int128(5), int128(-10)), Rational(-1, 2));
  // Irreducible and out of range: must throw, never truncate.
  EXPECT_THROW((void)Rational::from_int128(int128(kMax) * 2 + 1, int128(2)),
               NumericOverflow);
}

// ---------------------------------------------------------------------------
// Numeric promotion: adversarial weights overflow the int64 recurrences
// and the solvers transparently re-solve wide, with the promotion
// counted. The paper's regime (|w| <= 1e4) never takes this path.

TEST(Promotion, KarpPromotesAndStaysExact) {
  constexpr std::int64_t kHuge = 3'000'000'000'000'000'000;  // ~ INT64_MAX / 3
  // The Karp family on a 4-ring whose level sums leave int64, both signs.
  for (const std::int64_t w : {kHuge, -kHuge}) {
    GraphBuilder b(4);
    for (NodeId u = 0; u < 4; ++u) b.add_arc(u, (u + 1) % 4, w);
    const Graph g = b.build();
    for (const std::string name : {"karp", "karp2", "dg", "ho"}) {
      const auto solver = SolverRegistry::instance().create(name);
      const CycleResult r = minimum_cycle_mean(g, *solver);
      ASSERT_TRUE(r.has_cycle) << name << " w=" << w;
      EXPECT_EQ(r.value, Rational(w, 1)) << name << " w=" << w;
      const auto cert = verify_result(g, r, ProblemKind::kCycleMean);
      EXPECT_TRUE(cert.ok) << name << " w=" << w << ": " << cert.message;
      EXPECT_GT(r.counters.numeric_promotions, 0u) << name << " w=" << w;
    }
  }
  // Hartmann-Orlin's ratio table on the same ring with transits 2,3,1,2.
  for (const std::int64_t w : {kHuge, -kHuge}) {
    GraphBuilder b(4);
    const std::int64_t transit[] = {2, 3, 1, 2};
    for (NodeId u = 0; u < 4; ++u) b.add_arc(u, (u + 1) % 4, w, transit[u]);
    const Graph g = b.build();
    const auto solver = SolverRegistry::instance().create("ho_ratio");
    const CycleResult r = minimum_cycle_ratio(g, *solver);
    ASSERT_TRUE(r.has_cycle) << "w=" << w;
    EXPECT_EQ(r.value, Rational(w / 2, 1)) << "w=" << w;
    const auto cert = verify_result(g, r, ProblemKind::kCycleRatio);
    EXPECT_TRUE(cert.ok) << "w=" << w << ": " << cert.message;
    EXPECT_GT(r.counters.numeric_promotions, 0u) << "w=" << w;
  }
}

TEST(Promotion, KarpWidthRuleBoundary) {
  // Karp picks its table width from n * max|w| against the int64 "no
  // walk" sentinel INT64_MAX / 4: a 6-ring whose level-6 sum lands one
  // below the sentinel stays int64, the next weight up promotes, and
  // both give the exact mean with the whole ring as witness.
  constexpr std::int64_t kSentinel = std::numeric_limits<std::int64_t>::max() / 4;
  constexpr std::int64_t kBelow = (kSentinel - 1) / 6;
  static_assert(6 * kBelow == kSentinel - 1);
  const std::vector<ArcId> ring = {0, 1, 2, 3, 4, 5};
  for (const std::int64_t w : {kBelow, kBelow + 1}) {
    GraphBuilder b(6);
    for (NodeId u = 0; u < 6; ++u) b.add_arc(u, (u + 1) % 6, w);
    const Graph g = b.build();
    const auto solver = SolverRegistry::instance().create("karp");
    const CycleResult r = minimum_cycle_mean(g, *solver);
    ASSERT_TRUE(r.has_cycle) << "w=" << w;
    EXPECT_EQ(r.value, Rational(w, 1)) << "w=" << w;
    EXPECT_EQ(r.cycle, ring) << "w=" << w;
    EXPECT_TRUE(verify_result(g, r, ProblemKind::kCycleMean).ok) << "w=" << w;
    EXPECT_EQ(r.counters.numeric_promotions, w == kBelow ? 0u : 1u) << "w=" << w;
  }
}

TEST(Promotion, KarpFamilyWitnessWhenLambdaCostsLeaveInt64) {
  // The optimum 9000000000000000001/3 sits on the 3-cycle; at that value
  // the 2-cycle's arcs transform to 4e18 * 3 - num, beyond int64, so the
  // witness probe must repeat in 128-bit costs.
  GraphBuilder b(4);
  b.add_arc(0, 1, 3'000'000'000'000'000'000);
  b.add_arc(1, 2, 3'000'000'000'000'000'000);
  b.add_arc(2, 0, 3'000'000'000'000'000'001);
  b.add_arc(0, 3, 4'000'000'000'000'000'000);
  b.add_arc(3, 0, 4'000'000'000'000'000'000);
  const Graph g = b.build();
  for (const std::string name : {"karp", "karp2", "dg", "ho"}) {
    const auto solver = SolverRegistry::instance().create(name);
    const CycleResult r = minimum_cycle_mean(g, *solver);
    ASSERT_TRUE(r.has_cycle) << name;
    EXPECT_EQ(r.value, Rational(9'000'000'000'000'000'001, 3)) << name;
    const auto cert = verify_result(g, r, ProblemKind::kCycleMean);
    EXPECT_TRUE(cert.ok) << name << ": " << cert.message;
  }
}

TEST(Promotion, VerifierStaysExactOnHugeWitness) {
  // The verifier is the oracle the chaos harness trusts, so it must not
  // wrap where the solvers promote: summing this witness in int64 wraps
  // to a negative mean and a correct answer would be reported as wrong.
  constexpr std::int64_t kHuge = 3'000'000'000'000'000'000;
  GraphBuilder b(4);
  for (NodeId u = 0; u < 4; ++u) b.add_arc(u, (u + 1) % 4, kHuge);
  const Graph g = b.build();
  const std::vector<ArcId> ring = {0, 1, 2, 3};
  EXPECT_EQ(cycle_mean(g, ring), Rational(kHuge, 1));
  EXPECT_THROW((void)cycle_weight(g, ring), NumericOverflow);

  const auto solver = SolverRegistry::instance().create("karp");
  const CycleResult r = minimum_cycle_mean(g, *solver);
  const auto cert = verify_result(g, r, ProblemKind::kCycleMean);
  EXPECT_TRUE(cert.ok) << cert.message;

  // Ratio objective, negative weights, non-unit transits (sum reduces
  // back into int64 range): same contract end to end.
  GraphBuilder rb(3);
  rb.add_arc(0, 1, -kHuge, 2);
  rb.add_arc(1, 2, -kHuge, 3);
  rb.add_arc(2, 0, -kHuge, 1);
  const Graph rg = rb.build();
  const auto rsolver = SolverRegistry::instance().create("howard_ratio");
  const CycleResult rr = minimum_cycle_ratio(rg, *rsolver);
  ASSERT_TRUE(rr.has_cycle);
  EXPECT_EQ(rr.value, Rational(-kHuge / 2, 1));
  const auto rcert = verify_result(rg, rr, ProblemKind::kCycleRatio);
  EXPECT_TRUE(rcert.ok) << rcert.message;
}

TEST(Promotion, BellmanFordPromotesOnHugeCosts) {
  GraphBuilder b(3);
  b.add_arc(0, 1, 0);
  b.add_arc(1, 2, 0);
  b.add_arc(2, 0, 0);
  const Graph g = b.build();
  constexpr std::int64_t kHuge = -4'000'000'000'000'000'000;
  const std::vector<std::int64_t> cost = {kHuge, kHuge, kHuge};
  OpCounters counters;
  const BellmanFordResult r = bellman_ford_all(g, cost, &counters);
  EXPECT_TRUE(r.has_negative_cycle);
  EXPECT_EQ(r.cycle.size(), 3u);
  EXPECT_GT(counters.numeric_promotions, 0u);

  // The width boundary: every potential of an n-node graph is a walk of
  // at most n+1 arcs, so a cost of magnitude c runs in int64 exactly
  // when (n+1) * c stays below INT64_MAX / 4. A 4-ring one below that
  // limit and one step past it gives the same verdict and the same
  // cycle; only the width moves.
  constexpr std::int64_t kLimit = std::numeric_limits<std::int64_t>::max() / 4;
  constexpr std::int64_t kBelow = (kLimit - 1) / 5;
  static_assert(5 * kBelow == kLimit - 1);
  GraphBuilder rb(4);
  for (NodeId u = 0; u < 4; ++u) rb.add_arc(u, (u + 1) % 4, 0);
  const Graph ring = rb.build();
  std::vector<std::vector<ArcId>> cycles;
  for (const std::int64_t c : {kBelow, kBelow + 1}) {
    const std::vector<std::int64_t> ring_cost(4, -c);
    OpCounters ring_counters;
    const BellmanFordResult rr = bellman_ford_all(ring, ring_cost, &ring_counters);
    EXPECT_TRUE(rr.has_negative_cycle) << "c=" << c;
    EXPECT_EQ(rr.cycle.size(), 4u) << "c=" << c;
    EXPECT_EQ(ring_counters.numeric_promotions, c == kBelow ? 0u : 1u) << "c=" << c;
    cycles.push_back(rr.cycle);
  }
  EXPECT_EQ(cycles[0], cycles[1]);
}

TEST(Promotion, EverySolverExactOnHugeWeights) {
  // Every registered solver but brute force, held to the value
  // cycle_cancel finds and to the exact certificate on graphs whose
  // cycle sums (or Howard's scaled distances) leave int64.
  constexpr std::int64_t kHuge = 3'000'000'000'000'000'000;
  const auto ring = [](std::int64_t w, std::vector<std::int64_t> transit) {
    GraphBuilder b(static_cast<NodeId>(transit.size()));
    for (std::size_t u = 0; u < transit.size(); ++u) {
      b.add_arc(static_cast<NodeId>(u), static_cast<NodeId>((u + 1) % transit.size()), w,
                transit[u]);
    }
    return b.build();
  };
  const auto sprand = [](NodeId n, ArcId m, std::int64_t w, std::uint64_t seed) {
    return gen::sprand({.n = n,
                        .m = m,
                        .min_weight = -w,
                        .max_weight = w,
                        .min_transit = 1,
                        .max_transit = 9,
                        .seed = seed});
  };
  GraphBuilder mixed(4);  // p mcr 4 5: its lambda-costs leave int64
  mixed.add_arc(0, 1, 3'000'000'000'000'000'000);
  mixed.add_arc(1, 2, 3'000'000'000'000'000'000);
  mixed.add_arc(2, 0, 3'000'000'000'000'000'001);
  mixed.add_arc(0, 3, 4'000'000'000'000'000'000);
  mixed.add_arc(3, 0, 4'000'000'000'000'000'000);

  std::vector<std::pair<std::string, Graph>> mean_graphs;
  mean_graphs.emplace_back("ring +W", ring(kHuge, {1, 1, 1, 1}));
  mean_graphs.emplace_back("ring -W", ring(-kHuge, {1, 1, 1, 1}));
  mean_graphs.emplace_back("mixed", mixed.build());
  mean_graphs.emplace_back("sprand seed 2", sprand(6, 12, 329'406'144'173'384'850, 2));
  std::vector<std::pair<std::string, Graph>> ratio_graphs;
  ratio_graphs.emplace_back("ratio ring +W", ring(kHuge, {2, 3, 1, 2}));
  ratio_graphs.emplace_back("ratio ring -W", ring(-kHuge, {2, 3, 1, 2}));
  ratio_graphs.emplace_back("sprand seed 545", sprand(4, 8, 461'168'601'842'738'790, 545));

  for (const ProblemKind kind : {ProblemKind::kCycleMean, ProblemKind::kCycleRatio}) {
    const bool mean = kind == ProblemKind::kCycleMean;
    const auto solve = [&](const Graph& g, const std::string& name) {
      const auto solver = SolverRegistry::instance().create(name);
      return mean ? minimum_cycle_mean(g, *solver) : minimum_cycle_ratio(g, *solver);
    };
    for (const auto& [label, g] : mean ? mean_graphs : ratio_graphs) {
      const CycleResult ref = solve(g, mean ? "cycle_cancel" : "cycle_cancel_ratio");
      ASSERT_TRUE(ref.has_cycle) << label;
      for (const std::string& name : SolverRegistry::instance().names(kind)) {
        if (name.rfind("brute_force", 0) == 0) continue;
        const CycleResult r = solve(g, name);
        ASSERT_TRUE(r.has_cycle) << name << " on " << label;
        EXPECT_EQ(r.value, ref.value) << name << " on " << label;
        const auto cert = verify_result(g, r, kind);
        EXPECT_TRUE(cert.ok) << name << " on " << label << ": " << cert.message;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Hook-dependent tests. The Injector type only exists under
// MCR_FAULT_INJECTION; everything below skips without it.

#if defined(MCR_FAULT_INJECTION) && MCR_FAULT_INJECTION
constexpr bool kHooksCompiledIn = true;
#else
constexpr bool kHooksCompiledIn = false;
#endif

#define MCR_REQUIRE_HOOKS()                                              \
  if (!kHooksCompiledIn)                                                 \
  GTEST_SKIP() << "fault hooks compiled out (build with -DMCR_FAULT_INJECTION=ON)"

#if defined(MCR_FAULT_INJECTION) && MCR_FAULT_INJECTION

std::string drive_trace(const fault::Plan& plan) {
  fault::Injector injector(plan);
  // A fixed mixed workload over every site.
  for (int i = 0; i < 200; ++i) {
    (void)injector.decide(fault::Site::kSockRead);
    (void)injector.decide(fault::Site::kSockWrite);
    if (i % 2 == 0) (void)injector.decide(fault::Site::kAlloc);
    if (i % 3 == 0) (void)injector.decide(fault::Site::kWorkerDeath);
    if (i % 5 == 0) (void)injector.decide(fault::Site::kPhase);
  }
  return injector.trace_string();
}

TEST(Injector, SameSeedSameTraceBitIdentical) {
  MCR_REQUIRE_HOOKS();
  fault::Plan plan = fault::Plan::parse(
      "read_eintr=0.2,read_short=0.1,write_reset=0.15,alloc=0.1,"
      "worker_death=0.3,phase=0.2,max_deaths=5");
  plan.seed = 99;
  const std::string first = drive_trace(plan);
  const std::string second = drive_trace(plan);
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, second);
  plan.seed = 100;
  EXPECT_NE(drive_trace(plan), first) << "different seed should reschedule";
}

TEST(Injector, DecisionIsPureInSiteAndSequence) {
  MCR_REQUIRE_HOOKS();
  // Interleaving draws across sites must not change what each site
  // sees: site draws depend on the per-site sequence only.
  fault::Plan plan = fault::Plan::parse("read_eintr=0.5,write_reset=0.5");
  plan.seed = 7;
  std::vector<fault::Action> reads_alone;
  {
    fault::Injector injector(plan);
    for (int i = 0; i < 64; ++i) {
      reads_alone.push_back(injector.decide(fault::Site::kSockRead).action);
    }
  }
  {
    fault::Injector injector(plan);
    for (int i = 0; i < 64; ++i) {
      (void)injector.decide(fault::Site::kSockWrite);  // interleaved noise
      EXPECT_EQ(injector.decide(fault::Site::kSockRead).action, reads_alone
                    [static_cast<std::size_t>(i)]);
    }
  }
}

TEST(Injector, MaxPerSiteCapsFiring) {
  MCR_REQUIRE_HOOKS();
  fault::Plan plan = fault::Plan::parse("read_eintr=1,max_per_site=5");
  fault::Injector injector(plan);
  int fired = 0;
  for (int i = 0; i < 50; ++i) {
    if (injector.decide(fault::Site::kSockRead).action != fault::Action::kNone) {
      ++fired;
    }
  }
  EXPECT_EQ(fired, 5);
  EXPECT_EQ(injector.fired_count(fault::Site::kSockRead), 5u);
  EXPECT_EQ(injector.evaluation_count(fault::Site::kSockRead), 50u);
}

TEST(Injector, MaxDeathsCapsBelowMaxPerSite) {
  MCR_REQUIRE_HOOKS();
  fault::Plan plan = fault::Plan::parse("worker_death=1,max_per_site=100,max_deaths=2");
  fault::Injector injector(plan);
  int deaths = 0;
  for (int i = 0; i < 20; ++i) {
    if (injector.decide(fault::Site::kWorkerDeath).action == fault::Action::kDeath) {
      ++deaths;
    }
  }
  EXPECT_EQ(deaths, 2);
}

TEST(Injector, SuppressScopeHidesHooksWithoutConsumingSequence) {
  MCR_REQUIRE_HOOKS();
  fault::Plan plan = fault::Plan::parse("read_eintr=1");
  fault::Injector injector(plan);
  fault::Injector::install(&injector);
  {
    fault::SuppressScope suppress;
    for (int i = 0; i < 10; ++i) {
      EXPECT_EQ(MCR_FAULT_POINT(fault::Site::kSockRead).action,
                fault::Action::kNone);
    }
  }
  EXPECT_EQ(injector.evaluation_count(fault::Site::kSockRead), 0u)
      << "suppressed draws must not consume sequence numbers";
  EXPECT_EQ(MCR_FAULT_POINT(fault::Site::kSockRead).action, fault::Action::kEintr);
  fault::Injector::install(nullptr);
}

// ---------------------------------------------------------------------------
// Socket helpers under injected faults (satellite: EINTR/short/reset
// regression through read_full / write_full / read_frame).

struct SocketPair {
  int fds[2] = {-1, -1};
  SocketPair() { EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0); }
  ~SocketPair() {
    if (fds[0] >= 0) ::close(fds[0]);
    if (fds[1] >= 0) ::close(fds[1]);
  }
};

TEST(SocketFaults, ReadFullSurvivesEintrAndShortReads) {
  MCR_REQUIRE_HOOKS();
  SocketPair sp;
  const std::string message = "the quick brown fox jumps over the lazy dog";
  ASSERT_TRUE(svc::write_full(sp.fds[0], message));

  fault::Plan plan = fault::Plan::parse("read_eintr=1,max_per_site=4");
  // Also mix in short reads once the EINTR budget is exhausted: cap
  // applies per *fired* injection, so after 4 EINTRs the stream still
  // completes.
  plan.read_short = 1.0;
  fault::Injector injector(plan);
  fault::Injector::install(&injector);
  std::string buf(message.size(), '\0');
  const std::ptrdiff_t n = svc::read_full(sp.fds[1], buf.data(), buf.size());
  fault::Injector::install(nullptr);

  EXPECT_EQ(n, static_cast<std::ptrdiff_t>(message.size()));
  EXPECT_EQ(buf, message);
  EXPECT_GT(injector.evaluation_count(fault::Site::kSockRead), 1u)
      << "injected EINTR/short rounds should force extra read attempts";
}

TEST(SocketFaults, ReadFullReportsInjectedReset) {
  MCR_REQUIRE_HOOKS();
  SocketPair sp;
  ASSERT_TRUE(svc::write_full(sp.fds[0], "payload"));
  fault::Injector injector(fault::Plan::parse("read_reset=1"));
  fault::Injector::install(&injector);
  char buf[7];
  errno = 0;
  const std::ptrdiff_t n = svc::read_full(sp.fds[1], buf, sizeof buf);
  fault::Injector::install(nullptr);
  EXPECT_EQ(n, -1);
  EXPECT_EQ(errno, ECONNRESET);
}

TEST(SocketFaults, WriteFullSurvivesShortWritesAndEintr) {
  MCR_REQUIRE_HOOKS();
  SocketPair sp;
  const std::string message(2000, 'x');
  fault::Injector injector(
      fault::Plan::parse("write_short=0.7,write_eintr=0.3,max_per_site=50"));
  fault::Injector::install(&injector);
  const bool ok = svc::write_full(sp.fds[0], message);
  fault::Injector::install(nullptr);
  ASSERT_TRUE(ok);

  std::string buf(message.size(), '\0');
  EXPECT_EQ(svc::read_full(sp.fds[1], buf.data(), buf.size()),
            static_cast<std::ptrdiff_t>(message.size()));
  EXPECT_EQ(buf, message);
}

TEST(SocketFaults, WriteFullReportsInjectedReset) {
  MCR_REQUIRE_HOOKS();
  SocketPair sp;
  fault::Injector injector(fault::Plan::parse("write_reset=1"));
  fault::Injector::install(&injector);
  errno = 0;
  const bool ok = svc::write_full(sp.fds[0], "payload");
  fault::Injector::install(nullptr);
  EXPECT_FALSE(ok);
  EXPECT_EQ(errno, ECONNRESET);
}

TEST(SocketFaults, ReadFrameSurvivesChoppedDelivery) {
  MCR_REQUIRE_HOOKS();
  SocketPair sp;
  const std::string payload = R"({"verb":"PING"})";
  ASSERT_TRUE(svc::write_full(sp.fds[0], svc::encode_frame(payload)));
  fault::Injector injector(
      fault::Plan::parse("read_short=1,max_per_site=1000"));
  fault::Injector::install(&injector);
  std::string out;
  const svc::ReadStatus status = svc::read_frame(sp.fds[1], 1 << 20, out);
  fault::Injector::install(nullptr);
  EXPECT_EQ(status, svc::ReadStatus::kOk);
  EXPECT_EQ(out, payload);
  // Every byte delivered one at a time: header (8) + payload.
  EXPECT_GE(injector.evaluation_count(fault::Site::kSockRead),
            8u + payload.size());
}

// ---------------------------------------------------------------------------
// Thread pool: stalls delay, deaths are replaced, no index is lost.

TEST(PoolFaults, SurvivesWorkerStallsAndDeaths) {
  MCR_REQUIRE_HOOKS();
  fault::Injector injector(fault::Plan::parse(
      "worker_stall=0.3,worker_death=1,stall_ms=1,max_per_site=1000,max_deaths=3"));
  fault::Injector::install(&injector);
  std::atomic<int> executed{0};
  {
    ThreadPool pool(2);
    pool.run(60, [&executed](std::size_t) { executed.fetch_add(1); });
    EXPECT_EQ(executed.load(), 60);
    EXPECT_EQ(pool.deaths(), 3u) << "max_deaths bounds respawns";
  }  // destructor joins the live workers
  fault::Injector::install(nullptr);
}

TEST(PoolFaults, DeathOnLastIndexIsReplacedBeforeRunReturns) {
  MCR_REQUIRE_HOOKS();
  fault::Injector injector(fault::Plan::parse("worker_death=1,max_deaths=2"));
  fault::Injector::install(&injector);
  {
    ThreadPool pool(2);
    // A one-index wave's only index is its last, and its worker dies.
    for (std::uint64_t k = 1; k <= 2; ++k) {
      pool.run(1, [](std::size_t) {});
      EXPECT_EQ(pool.deaths(), k) << "run() returned before replacing the worker";
    }
    // Deaths spent. Each index now waits until size() indices have
    // started, which only size() live workers can do: run()'s own
    // thread never runs an index.
    std::mutex mutex;
    std::condition_variable cv;
    int started = 0;
    std::atomic<int> timed_out{0};
    pool.run(static_cast<std::size_t>(pool.size()), [&](std::size_t) {
      std::unique_lock<std::mutex> lk(mutex);
      ++started;
      cv.notify_all();
      if (!cv.wait_for(lk, std::chrono::seconds(10),
                       [&] { return started == pool.size(); })) {
        timed_out.fetch_add(1);
      }
    });
    EXPECT_EQ(started, pool.size());
    EXPECT_EQ(timed_out.load(), 0) << "fewer than size() live workers";
  }
  fault::Injector::install(nullptr);
}

// ---------------------------------------------------------------------------
// Client retry against a live faulty server.

std::string unique_socket_path() {
  static std::atomic<int> counter{0};
  return "/tmp/mcr_fault_" + std::to_string(::getpid()) + "_" +
         std::to_string(counter.fetch_add(1)) + ".sock";
}

TEST(ClientRetry, SolvesCorrectlyThroughInjectedResets) {
  MCR_REQUIRE_HOOKS();
  GraphBuilder b(6);
  for (NodeId u = 0; u < 6; ++u) b.add_arc(u, (u + 1) % 6, 5 + u);
  const Graph ring = b.build();  // single cycle, mean (5+...+10)/6 = 15/2
  std::ostringstream dimacs;
  write_dimacs(dimacs, ring, "retry test");

  svc::ServerOptions options;
  options.unix_socket_path = unique_socket_path();
  svc::Server server(options);
  server.start();

  fault::Injector injector(fault::Plan::parse(
      "read_reset=0.1,read_eintr=0.2,write_short=0.2,alloc=0.05,"
      "max_per_site=200,seed=4242"));
  fault::Injector::install(&injector);
  {
    // Only the server's threads draw faults; this thread is the test
    // driver (same discipline as mcr_chaos).
    fault::SuppressScope suppress;
    svc::Client client = svc::Client::connect_unix(options.unix_socket_path);
    svc::RetryPolicy policy;
    policy.max_attempts = 10;
    policy.initial_backoff_ms = 1.0;
    policy.max_backoff_ms = 10.0;
    client.set_retry_policy(policy);

    std::string fingerprint;
    for (int attempt = 0; attempt < 10 && fingerprint.empty(); ++attempt) {
      try {
        fingerprint = client.load_dimacs_text(dimacs.str());
      } catch (const svc::ServiceError&) {  // injected alloc failure
      } catch (const svc::TransportError&) {
        client.reconnect();
      }
    }
    ASSERT_FALSE(fingerprint.empty());

    int verified = 0;
    for (int i = 0; i < 8; ++i) {
      try {
        const json::Value r = client.solve_retry(fingerprint, "min_mean");
        const json::Value& result = r.at("result");
        ASSERT_TRUE(result.at("has_cycle").as_bool());
        EXPECT_EQ(static_cast<std::int64_t>(result.at("value_num").as_double()), 15);
        EXPECT_EQ(static_cast<std::int64_t>(result.at("value_den").as_double()), 2);
        ++verified;
      } catch (const svc::ServiceError& e) {
        // Permitted: typed, documented failure (e.g. INTERNAL from an
        // injected alloc fault). Never a wrong answer.
        EXPECT_FALSE(e.code().empty());
      } catch (const svc::TransportError&) {
        client.reconnect();
      }
    }
    EXPECT_GT(verified, 0) << "retry should push at least one solve through";
  }
  fault::Injector::install(nullptr);
  server.stop_and_drain();
  EXPECT_GT(injector.fired_count(), 0u);
}

#else  // !MCR_FAULT_INJECTION

TEST(Injector, HooksCompiledOut) { MCR_REQUIRE_HOOKS(); }

TEST(FaultMacro, FoldsToNoFault) {
  // The macro must be usable (and inert) in every build.
  EXPECT_EQ(MCR_FAULT_POINT(fault::Site::kAlloc).action, fault::Action::kNone);
  fault::SuppressScope scope;  // no-op stand-in compiles
}

#endif  // MCR_FAULT_INJECTION

}  // namespace
