#include "gen/circuit.h"

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "support/prng.h"

namespace mcr::gen {

Graph circuit(const CircuitConfig& config) {
  if (config.registers < 1) throw std::invalid_argument("circuit: need >= 1 register");
  if (config.module_size < 1) throw std::invalid_argument("circuit: module_size >= 1");
  if (config.avg_fanout < 1.0) throw std::invalid_argument("circuit: avg_fanout >= 1");
  if (config.min_delay > config.max_delay) {
    throw std::invalid_argument("circuit: empty delay interval");
  }
  Prng rng(config.seed);
  const NodeId n = config.registers;
  const NodeId msize = std::min(config.module_size, n);
  const NodeId num_modules = (n + msize - 1) / msize;
  const auto module_of = [&](NodeId v) { return v / msize; };
  const auto module_begin = [&](NodeId mod) { return mod * msize; };
  const auto module_end = [&](NodeId mod) { return std::min<NodeId>(n, (mod + 1) * msize); };
  const auto delay = [&] { return rng.uniform_int(config.min_delay, config.max_delay); };

  std::vector<ArcSpec> arcs;

  // Classify modules: pure shift-rings (counters, shift registers,
  // LFSRs) versus datapath modules that will also receive forwarding
  // skip arcs below.
  std::vector<bool> is_ring(static_cast<std::size_t>(num_modules));
  for (NodeId mod = 0; mod < num_modules; ++mod) {
    is_ring[static_cast<std::size_t>(mod)] = rng.bernoulli(config.ring_module_prob);
  }

  // Local shift-register chain inside each module: gives every module a
  // backbone and keeps the in/out degree distribution circuit-like.
  for (NodeId v = 0; v < n; ++v) {
    const NodeId mod = module_of(v);
    if (v + 1 < module_end(mod)) {
      arcs.push_back(ArcSpec{v, v + 1, delay(), 1});
    }
  }
  // Local feedback: close each module into a loop with some probability
  // (an FSM/datapath loop), which creates per-module SCCs.
  for (NodeId mod = 0; mod < num_modules; ++mod) {
    const NodeId b = module_begin(mod);
    const NodeId e = module_end(mod);
    if (e - b >= 2 && (is_ring[static_cast<std::size_t>(mod)] || rng.bernoulli(0.8))) {
      arcs.push_back(ArcSpec{e - 1, b, delay(), 1});
    }
  }
  // Forward pipeline arcs between consecutive modules.
  for (NodeId mod = 0; mod + 1 < num_modules; ++mod) {
    const NodeId u =
        static_cast<NodeId>(rng.uniform_int(module_begin(mod), module_end(mod) - 1));
    const NodeId v = static_cast<NodeId>(
        rng.uniform_int(module_begin(mod + 1), module_end(mod + 1) - 1));
    arcs.push_back(ArcSpec{u, v, delay(), 1});
  }
  // Self-loops (enabled-update registers, accumulators) — placed on
  // datapath modules; a shift-ring's registers move every cycle.
  for (NodeId v = 0; v < n; ++v) {
    if (!is_ring[static_cast<std::size_t>(module_of(v))] &&
        rng.bernoulli(config.self_loop_prob)) {
      arcs.push_back(ArcSpec{v, v, delay(), 1});
    }
  }
  // Extra fanout up to the requested average degree. Intra-module
  // extras are *forward skip arcs* (data-forwarding paths along the
  // pipeline direction): they add chords without destroying the
  // near-commensurate cycle lengths that make real circuit unfoldings
  // thin — the structural property behind DG's large circuit wins in
  // the paper (§4.4). Inter-module extras are forward pipeline arcs,
  // with feedback_prob of them jumping backwards (control loops).
  const auto target_arcs =
      static_cast<std::size_t>(config.avg_fanout * static_cast<double>(n));
  while (arcs.size() < target_arcs) {
    const NodeId u = static_cast<NodeId>(rng.uniform_int(0, n - 1));
    const NodeId umod = module_of(u);
    NodeId v = 0;
    if (!is_ring[static_cast<std::size_t>(umod)] && rng.bernoulli(0.7)) {
      // Forwarding path within a datapath module: skip 2..5 stages ahead.
      const NodeId limit = module_end(umod) - 1;
      if (u >= limit) continue;
      v = static_cast<NodeId>(
          std::min<std::int64_t>(limit, u + rng.uniform_int(2, 5)));
    } else if (rng.bernoulli(config.feedback_prob) && umod > 0) {
      // Global feedback to an earlier module.
      const NodeId tmod = static_cast<NodeId>(rng.uniform_int(0, umod - 1));
      v = static_cast<NodeId>(rng.uniform_int(module_begin(tmod), module_end(tmod) - 1));
    } else {
      // Forward connection to a later (or same) module.
      const NodeId tmod = static_cast<NodeId>(rng.uniform_int(umod, num_modules - 1));
      v = static_cast<NodeId>(rng.uniform_int(module_begin(tmod), module_end(tmod) - 1));
    }
    // Self-loops are handled above, except on a lone register, where
    // no other arc exists.
    if (u == v && n > 1) continue;
    arcs.push_back(ArcSpec{u, v, delay(), 1});
  }

  return Graph(n, arcs);
}

}  // namespace mcr::gen
