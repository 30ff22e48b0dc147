// BENCH_*.json artifacts — the machine-readable perf trajectory.
//
// One artifact is one run of a named workload grid (mcr_bench): every
// cell carries the robust timing summary (median/MAD/95% bootstrap CI),
// the driver phase breakdown, and hardware counters when
// perf_event_open is available. The schema is versioned so future PRs
// can evolve it without silently breaking mcr_bench_diff, and every
// artifact embeds BuildInfo so a number is always attributable to a
// binary and a machine.
//
// diff_artifacts() is the regression gate, on two axes. Time: a cell
// regresses when its median slows by more than the threshold AND lands
// above the baseline's CI upper bound — the CI guard keeps noisy
// micro-cells from flagging, the threshold keeps a tight CI from
// flagging a 0.3% drift. Work: each cell's OpCounters (the paper's
// machine-independent operation counts, §3) are deterministic, so any
// difference in any field fails, exactly; a change that moves counts
// regenerates the baseline in the same commit.
#ifndef MCR_BENCHKIT_ARTIFACT_H
#define MCR_BENCHKIT_ARTIFACT_H

#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "benchkit/runner.h"
#include "graph/graph.h"
#include "obs/build_info.h"
#include "support/json.h"
#include "support/op_counters.h"

namespace mcr::bench {

inline constexpr int kBenchSchemaVersion = 1;

struct BenchCell {
  std::string workload;  // "sprand" | "sprand_ratio" | "circuit"
  std::string instance;  // "n128_m256" or the circuit name
  NodeId n = 0;
  ArcId m = 0;
  std::string solver;
  bool ran = false;
  std::string skip_reason;  // "mem" | "time" when !ran
  SampleStats seconds;
  std::map<std::string, double> phases;    // phase_breakdown() seconds
  std::map<std::string, double> counters;  // per-counter medians
  bool counters_available = false;
  OpCounters ops;  // one solve's operation counts (zeros when absent)
};

struct BenchArtifact {
  int schema_version = kBenchSchemaVersion;
  std::string name;   // grid name; file becomes BENCH_<name>.json
  std::string scale;  // bench scale the grid was built at
  int warmup = 0;
  int repetitions = 0;
  std::string counters_backend;  // "perf_event" | "unavailable"
  std::string counters_fallback_reason;  // errno name when unavailable
  obs::BuildInfo build;
  std::vector<BenchCell> cells;
};

/// Serializes the artifact as schema-versioned JSON (stable key order).
void write_artifact(std::ostream& os, const BenchArtifact& artifact);
[[nodiscard]] std::string artifact_json(const BenchArtifact& artifact);

/// Parses an artifact from a DOM / file. Throws std::runtime_error on a
/// schema_version newer than this binary understands or missing fields.
[[nodiscard]] BenchArtifact artifact_from_json(const json::Value& doc);
[[nodiscard]] BenchArtifact load_artifact(const std::string& path);

struct DiffOptions {
  double threshold_pct = 5.0;  // median slowdown needed to flag
};

struct CellDiff {
  std::string workload;
  std::string instance;
  std::string solver;
  bool comparable = false;  // both sides ran
  double baseline_median = 0.0;
  double candidate_median = 0.0;
  double delta_pct = 0.0;  // (candidate - baseline) / baseline * 100
  bool regression = false;
  bool improvement = false;
  std::string note;  // "missing in candidate", "skip: mem -> time", ...
  /// Per-counter relative deltas, computed only over counter fields
  /// present on BOTH sides (perf counters depend on kernel config, so a
  /// baseline recorded with perf_event and a candidate without — or the
  /// reverse — simply has no counter intersection). Availability
  /// asymmetry is reported via `note`, never as a regression.
  std::map<std::string, double> counter_delta_pct;
  /// One "field baseline -> candidate" entry per OpCounters field that
  /// differs; any entry fails the gate.
  std::vector<std::string> ops_changes;
};

struct DiffReport {
  std::vector<CellDiff> cells;
  int regressions = 0;
  int ops_changed = 0;  // cells whose OpCounters differ
  int improvements = 0;
  int incomparable = 0;
};

/// Compares candidate against baseline cell-by-cell (keyed on
/// workload/instance/solver). Candidate-only cells are reported as
/// incomparable, never as regressions. The gate fails on regressions or
/// ops_changed.
[[nodiscard]] DiffReport diff_artifacts(const BenchArtifact& baseline,
                                        const BenchArtifact& candidate,
                                        const DiffOptions& options = {});

/// Per-cell table plus a verdict line ("2 regressions, ..."). When
/// `all_cells` is false only regressions/improvements/notes are listed.
void print_diff(std::ostream& os, const DiffReport& report, bool all_cells);

}  // namespace mcr::bench

#endif  // MCR_BENCHKIT_ARTIFACT_H
