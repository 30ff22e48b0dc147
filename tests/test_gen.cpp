#include <gtest/gtest.h>

#include <map>
#include <stdexcept>
#include <string>

#include "gen/circuit.h"
#include "gen/spec.h"
#include "gen/sprand.h"
#include "gen/structured.h"
#include "graph/fingerprint.h"
#include "graph/scc.h"
#include "graph/traversal.h"

namespace mcr {
namespace {

TEST(Sprand, ShapeMatchesConfig) {
  gen::SprandConfig cfg;
  cfg.n = 100;
  cfg.m = 250;
  cfg.seed = 3;
  const Graph g = gen::sprand(cfg);
  EXPECT_EQ(g.num_nodes(), 100);
  EXPECT_EQ(g.num_arcs(), 250);
}

TEST(Sprand, StronglyConnectedByConstruction) {
  gen::SprandConfig cfg;
  cfg.n = 64;
  cfg.m = 64;  // just the Hamiltonian cycle
  const Graph g = gen::sprand(cfg);
  EXPECT_TRUE(is_strongly_connected(g));
}

TEST(Sprand, WeightsInDefaultInterval) {
  gen::SprandConfig cfg;
  cfg.n = 50;
  cfg.m = 200;
  const Graph g = gen::sprand(cfg);
  for (ArcId a = 0; a < g.num_arcs(); ++a) {
    EXPECT_GE(g.weight(a), 1);
    EXPECT_LE(g.weight(a), 10000);
    EXPECT_EQ(g.transit(a), 1);
  }
}

TEST(Sprand, CustomWeightAndTransitIntervals) {
  gen::SprandConfig cfg;
  cfg.n = 30;
  cfg.m = 90;
  cfg.min_weight = -5;
  cfg.max_weight = 5;
  cfg.min_transit = 2;
  cfg.max_transit = 4;
  const Graph g = gen::sprand(cfg);
  for (ArcId a = 0; a < g.num_arcs(); ++a) {
    EXPECT_GE(g.weight(a), -5);
    EXPECT_LE(g.weight(a), 5);
    EXPECT_GE(g.transit(a), 2);
    EXPECT_LE(g.transit(a), 4);
  }
}

TEST(Sprand, DeterministicPerSeed) {
  gen::SprandConfig cfg;
  cfg.n = 40;
  cfg.m = 100;
  cfg.seed = 77;
  const Graph a = gen::sprand(cfg);
  const Graph b = gen::sprand(cfg);
  ASSERT_EQ(a.num_arcs(), b.num_arcs());
  for (ArcId e = 0; e < a.num_arcs(); ++e) {
    EXPECT_EQ(a.src(e), b.src(e));
    EXPECT_EQ(a.dst(e), b.dst(e));
    EXPECT_EQ(a.weight(e), b.weight(e));
  }
}

TEST(Sprand, DifferentSeedsDiffer) {
  gen::SprandConfig cfg;
  cfg.n = 40;
  cfg.m = 100;
  cfg.seed = 1;
  const Graph a = gen::sprand(cfg);
  cfg.seed = 2;
  const Graph b = gen::sprand(cfg);
  int diff = 0;
  for (ArcId e = 0; e < a.num_arcs(); ++e) {
    if (a.weight(e) != b.weight(e)) ++diff;
  }
  EXPECT_GT(diff, 10);
}

TEST(Sprand, NoSelfLoopsInRandomPart) {
  gen::SprandConfig cfg;
  cfg.n = 25;
  cfg.m = 200;
  const Graph g = gen::sprand(cfg);
  for (ArcId a = 0; a < g.num_arcs(); ++a) EXPECT_NE(g.src(a), g.dst(a));
}

TEST(Sprand, RejectsBadConfigs) {
  gen::SprandConfig cfg;
  cfg.n = 10;
  cfg.m = 5;  // m < n
  EXPECT_THROW(gen::sprand(cfg), std::invalid_argument);
  cfg.n = 0;
  cfg.m = 0;
  EXPECT_THROW(gen::sprand(cfg), std::invalid_argument);
  cfg.n = 5;
  cfg.m = 10;
  cfg.min_weight = 10;
  cfg.max_weight = 1;
  EXPECT_THROW(gen::sprand(cfg), std::invalid_argument);
}

TEST(Circuit, ShapeAndDelays) {
  gen::CircuitConfig cfg;
  cfg.registers = 128;
  cfg.seed = 5;
  const Graph g = gen::circuit(cfg);
  EXPECT_EQ(g.num_nodes(), 128);
  EXPECT_GE(g.num_arcs(), 128);  // avg_fanout >= 1
  for (ArcId a = 0; a < g.num_arcs(); ++a) {
    EXPECT_GE(g.weight(a), cfg.min_delay);
    EXPECT_LE(g.weight(a), cfg.max_delay);
    EXPECT_EQ(g.transit(a), 1);
  }
}

TEST(Circuit, SparseLikeRealCircuits) {
  gen::CircuitConfig cfg;
  cfg.registers = 512;
  cfg.avg_fanout = 1.6;
  cfg.seed = 6;
  const Graph g = gen::circuit(cfg);
  const double density = static_cast<double>(g.num_arcs()) / g.num_nodes();
  EXPECT_GE(density, 1.0);
  EXPECT_LE(density, 3.0);
}

TEST(Circuit, IsCyclicAndHasMultipleSccs) {
  gen::CircuitConfig cfg;
  cfg.registers = 256;
  cfg.module_size = 16;
  cfg.seed = 7;
  const Graph g = gen::circuit(cfg);
  EXPECT_TRUE(has_cycle(g));
  const SccDecomposition scc = strongly_connected_components(g);
  EXPECT_GT(scc.num_components, 1);
}

TEST(Circuit, Deterministic) {
  gen::CircuitConfig cfg;
  cfg.registers = 64;
  cfg.seed = 9;
  const Graph a = gen::circuit(cfg);
  const Graph b = gen::circuit(cfg);
  ASSERT_EQ(a.num_arcs(), b.num_arcs());
  for (ArcId e = 0; e < a.num_arcs(); ++e) {
    EXPECT_EQ(a.src(e), b.src(e));
    EXPECT_EQ(a.dst(e), b.dst(e));
    EXPECT_EQ(a.weight(e), b.weight(e));
  }
}

TEST(Circuit, LoneRegisterReachesItsFanout) {
  // On one register every extra-fanout arc is a self-loop, so they are
  // allowed there; otherwise the target degree could never be reached.
  gen::CircuitConfig cfg;
  cfg.registers = 1;
  cfg.avg_fanout = 3.0;
  const Graph g = gen::circuit(cfg);
  EXPECT_EQ(g.num_nodes(), 1);
  EXPECT_GE(g.num_arcs(), 3);
}

TEST(Circuit, RejectsBadConfigs) {
  gen::CircuitConfig cfg;
  cfg.registers = 0;
  EXPECT_THROW(gen::circuit(cfg), std::invalid_argument);
  cfg.registers = 10;
  cfg.avg_fanout = 0.5;
  EXPECT_THROW(gen::circuit(cfg), std::invalid_argument);
}

TEST(Structured, RingWeights) {
  const Graph g = gen::ring({4, 5, 6});
  EXPECT_EQ(g.num_nodes(), 3);
  EXPECT_EQ(g.num_arcs(), 3);
  EXPECT_TRUE(is_strongly_connected(g));
  EXPECT_EQ(g.weight(0), 4);
  EXPECT_EQ(g.dst(2), 0);
}

TEST(Structured, CompleteHasAllArcs) {
  const Graph g = gen::complete(5, 1, 9, 1);
  EXPECT_EQ(g.num_arcs(), 20);
  EXPECT_TRUE(is_strongly_connected(g));
}

TEST(Structured, LayeredFeedbackIsCyclic) {
  const Graph g = gen::layered_feedback(4, 3, 1, 9, 2);
  EXPECT_EQ(g.num_nodes(), 12);
  EXPECT_TRUE(has_cycle(g));
}

TEST(Structured, TorusShape) {
  const Graph g = gen::torus(3, 4, 1, 9, 2);
  EXPECT_EQ(g.num_nodes(), 12);
  EXPECT_EQ(g.num_arcs(), 24);
  EXPECT_TRUE(is_strongly_connected(g));
}

TEST(Structured, SccChainComponents) {
  const Graph g = gen::scc_chain(3, 4, 1, 9, 2);
  EXPECT_EQ(g.num_nodes(), 12);
  EXPECT_EQ(strongly_connected_components(g).num_components, 3);
}

TEST(Structured, PathIsAcyclic) {
  EXPECT_FALSE(has_cycle(gen::path(6)));
}

TEST(Structured, Validation) {
  EXPECT_THROW(gen::ring({}), std::invalid_argument);
  EXPECT_THROW(gen::complete(1, 1, 2, 3), std::invalid_argument);
  EXPECT_THROW(gen::torus(0, 3, 1, 2, 3), std::invalid_argument);
  EXPECT_THROW(gen::layered_feedback(0, 3, 1, 2, 3), std::invalid_argument);
  EXPECT_THROW(gen::scc_chain(0, 3, 1, 2, 3), std::invalid_argument);
  EXPECT_THROW(gen::path(0), std::invalid_argument);
}

// Generator specs (gen/spec.h): one builder behind mcr_gen, mcr_pack
// and the service's "generator" graph source.
gen::SpecParam spec_of(std::map<std::string, std::int64_t> values) {
  return [values = std::move(values)](const std::string& key, std::int64_t fallback) {
    const auto it = values.find(key);
    return it == values.end() ? fallback : it->second;
  };
}

TEST(GenSpec, DefaultsAreTheToolDefaults) {
  const gen::SpecParam none = spec_of({});
  gen::SprandConfig sprand;
  sprand.n = 512;
  sprand.m = 1024;
  EXPECT_EQ(fingerprint_hex(gen::generate("sprand", none)), fingerprint_hex(gen::sprand(sprand)));
  gen::CircuitConfig circuit;
  circuit.registers = 512;
  circuit.module_size = 32;
  circuit.avg_fanout = 1.5;
  EXPECT_EQ(fingerprint_hex(gen::generate("circuit", none)),
            fingerprint_hex(gen::circuit(circuit)));
  EXPECT_EQ(fingerprint_hex(gen::generate("ring", none)),
            fingerprint_hex(gen::random_ring(64, 1, 100, 1)));
  EXPECT_EQ(fingerprint_hex(gen::generate("torus", none)),
            fingerprint_hex(gen::torus(8, 8, 1, 100, 1)));
  EXPECT_THROW((void)gen::generate("bogus", none), std::invalid_argument);
}

TEST(GenSpec, EverySizeIsBounded) {
  const auto ok = [](const std::string& family, std::map<std::string, std::int64_t> v) {
    return (void)gen::generate(family, spec_of(std::move(v)), 100), true;
  };
  EXPECT_TRUE(ok("sprand", {{"n", 10}, {"m", 100}}));
  EXPECT_THROW(ok("sprand", {{"n", 10}, {"m", 101}}), std::invalid_argument);
  EXPECT_THROW(ok("ring", {{"n", 0}}), std::invalid_argument);
  EXPECT_TRUE(ok("torus", {{"rows", 10}, {"cols", 10}}));
  EXPECT_THROW(ok("torus", {{"rows", 10}, {"cols", 11}}), std::invalid_argument);
  EXPECT_TRUE(ok("circuit", {{"n", 50}, {"fanout", 201}}));  // 100 arcs
  EXPECT_THROW(ok("circuit", {{"n", 50}, {"fanout", 202}}), std::invalid_argument);
  // Unbounded callers are still held to the 32-bit node and arc ids.
  EXPECT_THROW((void)gen::generate("ring", spec_of({{"n", std::int64_t{1} << 40}})),
               std::invalid_argument);
}

}  // namespace
}  // namespace mcr
