// Representative operation counts, after Ahuja-Kodialam-Mishra-Orlin
// ("Computational investigation of maximum flow algorithms"), which the
// paper adopts (§3): besides wall-clock time, every solver reports
// counts of its characteristic operations so that algorithms can be
// compared machine-independently.
//
// One flat struct serves all solvers; each solver increments only the
// fields that are meaningful for it (the paper likewise compares "only
// the relevant ones", §3).
#ifndef MCR_SUPPORT_OP_COUNTERS_H
#define MCR_SUPPORT_OP_COUNTERS_H

#include <array>
#include <cstdint>
#include <string>

namespace mcr {

struct OpCounters {
  /// Outer iterations of the solver's main loop (Burns/KO/YTO/Howard
  /// convergence rounds; for HO, the value of k at termination; for
  /// Lawler/OA1, binary-search probes).
  std::uint64_t iterations = 0;
  /// Arc relaxation / scan operations (d-value updates attempted).
  std::uint64_t arc_scans = 0;
  /// Successful distance improvements.
  std::uint64_t relaxations = 0;
  /// Node visits (BFS/DFS/unfolding expansions).
  std::uint64_t node_visits = 0;
  /// Heap operations (KO/YTO and any Dijkstra-like phase).
  std::uint64_t heap_inserts = 0;
  std::uint64_t heap_decrease_keys = 0;
  std::uint64_t heap_delete_mins = 0;
  /// Negative-cycle / feasibility checks (Lawler probes, Burns rebuilds).
  std::uint64_t feasibility_checks = 0;
  /// Policy-cycle evaluations (Howard).
  std::uint64_t cycle_evaluations = 0;
  /// Times the integer-range rule (support/int_range.h) sent a
  /// recurrence to int128 or a component to the exact finish. Exported
  /// by the driver as mcr_numeric_promotions_total.
  std::uint64_t numeric_promotions = 0;

  [[nodiscard]] std::uint64_t heap_total() const {
    return heap_inserts + heap_decrease_keys + heap_delete_mins;
  }

  OpCounters& operator+=(const OpCounters& o);

  /// Field-wise equality; the parallel-driver tests assert counters are
  /// identical for every thread count.
  friend bool operator==(const OpCounters&, const OpCounters&) = default;

  /// Compact single-line rendering of the nonzero fields.
  [[nodiscard]] std::string summary() const;
};

/// Every OpCounters field by name, in declaration order: the one list
/// that operator+= and the BENCH artifact's "ops" object walk.
struct OpCounterField {
  const char* name;
  std::uint64_t OpCounters::*member;
};
inline constexpr std::array<OpCounterField, 10> kOpCounterFields{{
    {"iterations", &OpCounters::iterations},
    {"arc_scans", &OpCounters::arc_scans},
    {"relaxations", &OpCounters::relaxations},
    {"node_visits", &OpCounters::node_visits},
    {"heap_inserts", &OpCounters::heap_inserts},
    {"heap_decrease_keys", &OpCounters::heap_decrease_keys},
    {"heap_delete_mins", &OpCounters::heap_delete_mins},
    {"feasibility_checks", &OpCounters::feasibility_checks},
    {"cycle_evaluations", &OpCounters::cycle_evaluations},
    {"numeric_promotions", &OpCounters::numeric_promotions},
}};
static_assert(sizeof(OpCounters) == kOpCounterFields.size() * sizeof(std::uint64_t),
              "every OpCounters field is listed in kOpCounterFields");

}  // namespace mcr

#endif  // MCR_SUPPORT_OP_COUNTERS_H
