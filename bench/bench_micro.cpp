// B1 — google-benchmark microbenchmarks: one benchmark per solver on a
// fixed mid-size SPRAND instance plus substrate microbenchmarks (heaps,
// Bellman-Ford, SCC, the cold-SOLVE ingest path). These give CI-grade
// tracked numbers; the table-style experiments live in the bench_*
// table binaries.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <sstream>

#include "core/driver.h"
#include "core/registry.h"
#include "ds/binary_heap.h"
#include "ds/fibonacci_heap.h"
#include "ds/pairing_heap.h"
#include "gen/circuit.h"
#include "gen/sprand.h"
#include "graph/bellman_ford.h"
#include "graph/fingerprint.h"
#include "graph/io.h"
#include "graph/scc.h"
#include "support/json.h"
#include "support/prng.h"

namespace {

using namespace mcr;

const Graph& sprand_instance() {
  static const Graph g = [] {
    gen::SprandConfig cfg;
    cfg.n = 512;
    cfg.m = 1024;
    cfg.seed = 42;
    return gen::sprand(cfg);
  }();
  return g;
}

const Graph& circuit_instance() {
  static const Graph g = [] {
    gen::CircuitConfig cfg;
    cfg.registers = 512;
    cfg.seed = 42;
    return gen::circuit(cfg);
  }();
  return g;
}

void BM_Solver(benchmark::State& state, const std::string& name, bool circuit) {
  const Graph& g = circuit ? circuit_instance() : sprand_instance();
  const auto solver = SolverRegistry::instance().create(name);
  for (auto _ : state) {
    benchmark::DoNotOptimize(minimum_cycle_mean(g, *solver));
  }
}

void BM_Scc(benchmark::State& state) {
  const Graph& g = circuit_instance();
  for (auto _ : state) {
    benchmark::DoNotOptimize(strongly_connected_components(g));
  }
}
BENCHMARK(BM_Scc);

void BM_BellmanFord(benchmark::State& state) {
  const Graph& g = sprand_instance();
  std::vector<std::int64_t> cost(static_cast<std::size_t>(g.num_arcs()));
  for (ArcId a = 0; a < g.num_arcs(); ++a) cost[static_cast<std::size_t>(a)] = g.weight(a);
  for (auto _ : state) {
    benchmark::DoNotOptimize(bellman_ford_all(g, cost));
  }
}
BENCHMARK(BM_BellmanFord);

// What mcr_serve does to an inline-DIMACS SOLVE before the solve: parse
// the request, parse the graph text, fingerprint the graph. The payload
// has the shape of e2e_bench's serve_cold requests (sprand n=512,
// m=2048, unit transit).
void BM_ColdSolveIngest(benchmark::State& state) {
  const std::string payload = [] {
    gen::SprandConfig cfg;
    cfg.n = 512;
    cfg.m = 2048;
    cfg.seed = 42;
    std::ostringstream os;
    write_dimacs(os, gen::sprand(cfg));
    return R"({"verb":"SOLVE","dimacs":")" + json::escape(os.str()) +
           R"(","objective":"min_mean"})";
  }();
  for (auto _ : state) {
    const json::Value req = json::parse(payload);
    const Graph g = read_dimacs(req.at("dimacs").as_string());
    benchmark::DoNotOptimize(fingerprint_hex(g));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(payload.size()));
}
BENCHMARK(BM_ColdSolveIngest);

template <typename Heap>
void BM_HeapSortPattern(benchmark::State& state) {
  const std::int32_t n = static_cast<std::int32_t>(state.range(0));
  Prng rng(7);
  std::vector<std::int64_t> keys(static_cast<std::size_t>(n));
  for (auto& k : keys) k = rng.uniform_int(0, 1 << 20);
  for (auto _ : state) {
    Heap h(n);
    for (std::int32_t i = 0; i < n; ++i) h.insert(i, keys[static_cast<std::size_t>(i)]);
    for (std::int32_t i = 0; i < n / 2; ++i) {
      h.decrease_key(static_cast<std::int32_t>(rng.uniform_int(0, n - 1)), -i);
    }
    while (!h.empty()) benchmark::DoNotOptimize(h.extract_min());
  }
}
BENCHMARK_TEMPLATE(BM_HeapSortPattern, BinaryHeap<std::int64_t>)->Arg(4096);
BENCHMARK_TEMPLATE(BM_HeapSortPattern, PairingHeap<std::int64_t>)->Arg(4096);
BENCHMARK_TEMPLATE(BM_HeapSortPattern, FibonacciHeap<std::int64_t>)->Arg(4096);

// The operations a YTO solve sends its node heap, on n items under a
// seeded stream. Each round is one pivot: the minimum's key rises (its
// best in-arc became a tree arc), two other items rise or leave (the
// rest of the moved subtree) and three keys fall, never below the
// minimum (heads of arcs leaving the subtree). Keys never fall below
// the last minimum, as lambda only grows.
template <typename Heap>
void BM_HeapEventPattern(benchmark::State& state) {
  const std::int32_t n = static_cast<std::int32_t>(state.range(0));
  constexpr std::int64_t kSpread = 1 << 20;
  for (auto _ : state) {
    Prng rng(11);
    Heap h(n);
    for (std::int32_t i = 0; i < n; ++i) h.insert(i, rng.uniform_int(0, kSpread));
    for (std::int32_t round = 0; round < 4 * n; ++round) {
      const std::int32_t top = h.min_item();
      const std::int64_t lambda = h.key(top);
      h.update_key(top, lambda + rng.uniform_int(1, kSpread));
      for (int k = 0; k < 2; ++k) {
        const auto i = static_cast<std::int32_t>(rng.uniform_int(0, n - 1));
        if (!h.contains(i)) {
          h.insert(i, lambda + rng.uniform_int(0, kSpread));
        } else if (i != h.min_item() && rng.uniform_int(0, 3) == 0) {
          h.erase(i);
        } else {
          h.update_key(i, h.key(i) + rng.uniform_int(1, kSpread / 64));
        }
      }
      for (int k = 0; k < 3; ++k) {
        const auto i = static_cast<std::int32_t>(rng.uniform_int(0, n - 1));
        if (h.contains(i)) {
          h.decrease_key(i, std::max(lambda, h.key(i) - rng.uniform_int(0, kSpread / 64)));
        }
      }
    }
    benchmark::DoNotOptimize(h.size());
  }
}
BENCHMARK_TEMPLATE(BM_HeapEventPattern, BinaryHeap<std::int64_t>)->Arg(1024);
BENCHMARK_TEMPLATE(BM_HeapEventPattern, PairingHeap<std::int64_t>)->Arg(1024);
BENCHMARK_TEMPLATE(BM_HeapEventPattern, FibonacciHeap<std::int64_t>)->Arg(1024);

}  // namespace

// Per-solver registrations (sprand + circuit).
#define MCR_SOLVER_BENCH(name)                                               \
  BENCHMARK_CAPTURE(BM_Solver, name##_sprand, #name, false);                 \
  BENCHMARK_CAPTURE(BM_Solver, name##_circuit, #name, true)

MCR_SOLVER_BENCH(howard);
MCR_SOLVER_BENCH(ho);
MCR_SOLVER_BENCH(dg);
MCR_SOLVER_BENCH(karp);
MCR_SOLVER_BENCH(karp2);
MCR_SOLVER_BENCH(ko);
MCR_SOLVER_BENCH(yto);
MCR_SOLVER_BENCH(burns);
MCR_SOLVER_BENCH(lawler);
MCR_SOLVER_BENCH(oa1);
