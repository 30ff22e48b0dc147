// Timed solver execution with the guard rails the paper applied:
// quadratic-space algorithms are skipped (reported N/A) when the D
// table would not fit, and a per-solver time budget stops scaling a
// solver up once a row exceeds it ("we could not get a result in a
// day", Table 2 caption) — plus the statistical layer behind the BENCH
// artifacts: warmup + repeated timing, median/MAD, and a bootstrap
// confidence interval so regression gates can tell noise from change.
#ifndef MCR_BENCHKIT_RUNNER_H
#define MCR_BENCHKIT_RUNNER_H

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/driver.h"
#include "core/result.h"
#include "graph/graph.h"
#include "obs/perf_counters.h"

namespace mcr::bench {

struct TimedRun {
  bool ran = false;        // false => N/A (guarded out)
  std::string skip_reason;  // "mem" or "time" when !ran
  double seconds = 0.0;
  CycleResult result;
};

/// Runs the registry solver `name` on g through the SCC driver, wall-
/// clock timed. Returns ran == false without running when the solver's
/// estimated memory exceeds `mem_budget_bytes`. `options` is forwarded
/// to the driver (per-SCC parallelism; the result is thread-count
/// independent).
[[nodiscard]] TimedRun time_solver(const std::string& name, const Graph& g,
                                   std::size_t mem_budget_bytes = 2ULL << 30,
                                   const SolveOptions& options = {});

/// Estimated peak scratch bytes for a solver on an (n, m) instance;
/// only the Karp-family quadratic-space algorithms matter.
[[nodiscard]] std::size_t estimated_bytes(const std::string& name, NodeId n, ArcId m);

/// Robust summary of repeated measurements. Median and MAD (median
/// absolute deviation) instead of mean/stddev — a single preempted run
/// should not move the cell — plus a percentile-bootstrap 95% CI of the
/// median, resampled with a fixed seed so artifacts are reproducible.
struct SampleStats {
  std::vector<double> samples;  // raw values, run order
  double median = 0.0;
  double mad = 0.0;
  double ci_lower = 0.0;  // 95% bootstrap CI of the median
  double ci_upper = 0.0;
};

/// Computes SampleStats over `samples` (empty input yields all zeros).
/// `resamples` bootstrap draws; with fewer than 3 samples the CI
/// degenerates to [min, max].
[[nodiscard]] SampleStats summarize_samples(std::vector<double> samples,
                                            int resamples = 1000,
                                            std::uint64_t seed = 0x5eedb007);

/// Repetition policy for one benchmark cell.
struct RepeatOptions {
  int warmup = 1;       // untimed runs before measuring
  int repetitions = 5;  // timed runs
};

/// One solver x instance cell measured `repetitions` times after
/// `warmup` discarded runs. Counters are per-counter medians across the
/// timed repetitions (available only if available in every repetition);
/// pass perf == nullptr to skip counters entirely.
struct RepeatedRun {
  bool ran = false;
  std::string skip_reason;  // "mem" when !ran (time handled by caller)
  SampleStats seconds;
  obs::PerfSample counters;  // value[i] = median over repetitions
  OpCounters ops;            // the solver's operation counts (deterministic)
};
[[nodiscard]] RepeatedRun time_solver_repeated(
    const std::string& name, const Graph& g, const RepeatOptions& repeat,
    obs::PerfCounterGroup* perf = nullptr,
    std::size_t mem_budget_bytes = 2ULL << 30, const SolveOptions& options = {});

/// Runs the registry solver `name` on g with an obs::TraceRecorder
/// installed and returns seconds spent per driver phase, keyed by span
/// kind ("solve", "scc_decompose", "component", "merge",
/// "witness_extract"). Component time is summed across worker threads,
/// so with num_threads > 1 it can exceed the enclosing solve span.
[[nodiscard]] std::map<std::string, double> phase_breakdown(
    const std::string& name, const Graph& g, const SolveOptions& options = {});

/// Tracks per-solver worst-case times; once a solver exceeds the budget
/// it is skipped for all subsequent (larger) instances, like the
/// paper's day-long cutoffs.
class TimeBudget {
 public:
  explicit TimeBudget(double per_run_seconds) : budget_(per_run_seconds) {}

  [[nodiscard]] bool should_skip(const std::string& name) const {
    const auto it = worst_.find(name);
    return it != worst_.end() && it->second > budget_;
  }
  void record(const std::string& name, double seconds) {
    auto& w = worst_[name];
    if (seconds > w) w = seconds;
  }

 private:
  double budget_;
  std::map<std::string, double> worst_;
};

/// Per-run time budget by scale: small 5s, medium 30s, full 3600s.
[[nodiscard]] double default_time_budget();

}  // namespace mcr::bench

#endif  // MCR_BENCHKIT_RUNNER_H
