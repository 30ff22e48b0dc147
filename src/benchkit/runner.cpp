#include "benchkit/runner.h"

#include <algorithm>
#include <cmath>

#include "benchkit/workloads.h"
#include "core/driver.h"
#include "core/registry.h"
#include "obs/trace_recorder.h"
#include "support/prng.h"
#include "support/stats.h"

namespace mcr::bench {

namespace {

/// Median of an unsorted copy; 0 on empty input.
double median_of(std::vector<double> v) {
  if (v.empty()) return 0.0;
  const std::size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid), v.end());
  const double hi = v[mid];
  if (v.size() % 2 == 1) return hi;
  const double lo =
      *std::max_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid));
  return (lo + hi) / 2.0;
}

}  // namespace

SampleStats summarize_samples(std::vector<double> samples, int resamples,
                              std::uint64_t seed) {
  SampleStats out;
  out.samples = std::move(samples);
  if (out.samples.empty()) return out;
  out.median = median_of(out.samples);

  std::vector<double> deviations;
  deviations.reserve(out.samples.size());
  for (const double x : out.samples) deviations.push_back(std::abs(x - out.median));
  out.mad = median_of(std::move(deviations));

  const auto [lo_it, hi_it] =
      std::minmax_element(out.samples.begin(), out.samples.end());
  if (out.samples.size() < 3 || resamples < 10) {
    // Too few points for a meaningful bootstrap: the honest interval is
    // the observed range.
    out.ci_lower = *lo_it;
    out.ci_upper = *hi_it;
    return out;
  }

  Prng prng(seed);
  std::vector<double> medians;
  medians.reserve(static_cast<std::size_t>(resamples));
  std::vector<double> draw(out.samples.size());
  for (int r = 0; r < resamples; ++r) {
    for (double& d : draw) {
      d = out.samples[static_cast<std::size_t>(prng.uniform_int(
          0, static_cast<std::int64_t>(out.samples.size()) - 1))];
    }
    medians.push_back(median_of(draw));
  }
  std::sort(medians.begin(), medians.end());
  const auto pct = [&](double p) {
    const double pos = p * static_cast<double>(medians.size() - 1);
    const auto i = static_cast<std::size_t>(pos);
    const double frac = pos - static_cast<double>(i);
    if (i + 1 >= medians.size()) return medians.back();
    return medians[i] * (1.0 - frac) + medians[i + 1] * frac;
  };
  out.ci_lower = pct(0.025);
  out.ci_upper = pct(0.975);
  return out;
}

RepeatedRun time_solver_repeated(const std::string& name, const Graph& g,
                                 const RepeatOptions& repeat,
                                 obs::PerfCounterGroup* perf,
                                 std::size_t mem_budget_bytes,
                                 const SolveOptions& options) {
  RepeatedRun out;
  if (estimated_bytes(name, g.num_nodes(), g.num_arcs()) > mem_budget_bytes) {
    out.skip_reason = "mem";
    return out;
  }
  const auto solver = SolverRegistry::instance().create(name);
  const auto solve_once = [&] {
    return solver->kind() == ProblemKind::kCycleMean
               ? minimum_cycle_mean(g, *solver, options)
               : minimum_cycle_ratio(g, *solver, options);
  };
  for (int w = 0; w < repeat.warmup; ++w) solve_once();

  const int reps = std::max(repeat.repetitions, 1);
  std::vector<double> seconds;
  seconds.reserve(static_cast<std::size_t>(reps));
  std::array<std::vector<double>, obs::kNumPerfCounters> counter_samples;
  std::array<bool, obs::kNumPerfCounters> counter_ok{};
  counter_ok.fill(perf != nullptr);
  for (int r = 0; r < reps; ++r) {
    if (perf != nullptr) perf->start();
    Timer timer;
    out.ops = solve_once().counters;
    seconds.push_back(timer.seconds());
    if (perf != nullptr) {
      const obs::PerfSample sample = perf->stop();
      for (std::size_t i = 0; i < obs::kNumPerfCounters; ++i) {
        if (!sample.available[i]) {
          counter_ok[i] = false;
        } else {
          counter_samples[i].push_back(static_cast<double>(sample.value[i]));
        }
      }
    }
  }
  out.seconds = summarize_samples(std::move(seconds));
  for (std::size_t i = 0; i < obs::kNumPerfCounters; ++i) {
    if (!counter_ok[i]) continue;
    out.counters.available[i] = true;
    out.counters.value[i] =
        static_cast<std::uint64_t>(median_of(counter_samples[i]));
  }
  out.counters.wall_seconds = out.seconds.median;
  out.ran = true;
  return out;
}

std::size_t estimated_bytes(const std::string& name, NodeId n, ArcId m) {
  const std::size_t un = static_cast<std::size_t>(n);
  const std::size_t um = static_cast<std::size_t>(m);
  if (name == "karp") return (un + 1) * un * 8;
  if (name == "ho") return (un + 1) * un * 12;  // D + parent tables
  if (name == "dg") {
    // Worst case: every level touches every node (random graphs do).
    return (un + 1) * un * 12;
  }
  if (name == "ho_ratio") {
    // Theta(T n) rows; T <= 10 * m on the ratio workloads.
    return 10 * um * un * 8;
  }
  // Everything else is O(n + m).
  return (un + um) * 64;
}

TimedRun time_solver(const std::string& name, const Graph& g,
                     std::size_t mem_budget_bytes, const SolveOptions& options) {
  TimedRun out;
  if (estimated_bytes(name, g.num_nodes(), g.num_arcs()) > mem_budget_bytes) {
    out.skip_reason = "mem";
    return out;
  }
  const auto solver = SolverRegistry::instance().create(name);
  Timer timer;
  if (solver->kind() == ProblemKind::kCycleMean) {
    out.result = minimum_cycle_mean(g, *solver, options);
  } else {
    out.result = minimum_cycle_ratio(g, *solver, options);
  }
  out.seconds = timer.seconds();
  out.ran = true;
  return out;
}

std::map<std::string, double> phase_breakdown(const std::string& name, const Graph& g,
                                              const SolveOptions& options) {
  obs::TraceRecorder recorder;
  SolveOptions traced = options;
  traced.trace = &recorder;
  const auto solver = SolverRegistry::instance().create(name);
  if (solver->kind() == ProblemKind::kCycleMean) {
    (void)minimum_cycle_mean(g, *solver, traced);
  } else {
    (void)minimum_cycle_ratio(g, *solver, traced);
  }
  return recorder.span_totals();
}

double default_time_budget() {
  switch (bench_scale()) {
    case Scale::kSmall:
      return 5.0;
    case Scale::kMedium:
      return 30.0;
    case Scale::kFull:
      return 3600.0;
  }
  return 5.0;
}

}  // namespace mcr::bench
