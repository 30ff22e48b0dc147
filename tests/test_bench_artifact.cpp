// BENCH artifact pipeline — the contracts under test:
//   * write -> parse round-trips every field (including hostile strings
//     in build flags and skip cells).
//   * Self-diff is always clean: zero regressions, zero improvements.
//   * The gate flags a real slowdown, but only when the candidate lands
//     outside the baseline's CI (noise guard), and flags improvements
//     symmetrically.
//   * Schema versioning: a newer artifact is rejected, not misread.
//   * summarize_samples: median/MAD right, CI brackets the median,
//     degenerate CI for tiny samples, deterministic across calls.
#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "benchkit/artifact.h"
#include "benchkit/runner.h"
#include "support/json.h"

namespace mcr {
namespace {

using namespace mcr::bench;

SampleStats stats_around(double median, double half_width) {
  SampleStats s;
  s.samples = {median, median - half_width / 2, median + half_width / 2};
  s.median = median;
  s.mad = half_width / 2;
  s.ci_lower = median - half_width;
  s.ci_upper = median + half_width;
  return s;
}

BenchCell ran_cell(const std::string& instance, const std::string& solver,
                   double median, double ci_half_width) {
  BenchCell c;
  c.workload = "sprand";
  c.instance = instance;
  c.n = 128;
  c.m = 256;
  c.solver = solver;
  c.ran = true;
  c.seconds = stats_around(median, ci_half_width);
  c.phases = {{"solve", median}, {"scc_decompose", median / 10}};
  c.counters = {{"cycles", 1e6}, {"task_clock_ns", median * 1e9}};
  c.counters_available = true;
  c.ops.iterations = 7;
  c.ops.arc_scans = 67584;
  c.ops.node_visits = 2791;
  c.ops.cycle_evaluations = 9;
  return c;
}

BenchArtifact small_artifact() {
  BenchArtifact a;
  a.name = "unit";
  a.scale = "small";
  a.warmup = 1;
  a.repetitions = 3;
  a.counters_backend = "perf_event";
  a.build.git_sha = "abc123";
  a.build.compiler = "GNU 12.2.0";
  a.build.flags = "-O3 -DNDEBUG -DQUOTED=\"x\\y\"";  // hostile on purpose
  a.build.build_type = "Release";
  a.build.cpu_model = "Testor 9000";
  a.build.governor = "performance";
  a.build.hardware_threads = 4;
  a.cells.push_back(ran_cell("n128_m256", "howard", 0.010, 0.002));
  a.cells.push_back(ran_cell("n128_m256", "ko", 0.020, 0.001));
  BenchCell skipped;
  skipped.workload = "sprand";
  skipped.instance = "n8192_m8192";
  skipped.n = 8192;
  skipped.m = 8192;
  skipped.solver = "karp";
  skipped.skip_reason = "mem";
  a.cells.push_back(skipped);
  return a;
}

TEST(BenchArtifact, JsonRoundTripPreservesEverything) {
  BenchArtifact a = small_artifact();
  a.cells.push_back(ran_cell("n128_m320", "yto", 0.030, 0.002));
  a.cells.back().m = 320;
  std::ostringstream os;
  write_artifact(os, a);
  const BenchArtifact b = artifact_from_json(json::parse(os.str()));
  // Integer fields are written as integers, not in %g's exponent form.
  EXPECT_NE(os.str().find("\"m\":320,"), std::string::npos) << os.str();
  EXPECT_NE(os.str().find("\"n\":8192,"), std::string::npos);
  EXPECT_NE(os.str().find("\"hardware_threads\":4}"), std::string::npos);

  EXPECT_EQ(b.schema_version, kBenchSchemaVersion);
  EXPECT_EQ(b.name, a.name);
  EXPECT_EQ(b.scale, a.scale);
  EXPECT_EQ(b.warmup, a.warmup);
  EXPECT_EQ(b.repetitions, a.repetitions);
  EXPECT_EQ(b.counters_backend, a.counters_backend);
  EXPECT_EQ(b.build.git_sha, a.build.git_sha);
  EXPECT_EQ(b.build.flags, a.build.flags);
  EXPECT_EQ(b.build.cpu_model, a.build.cpu_model);
  EXPECT_EQ(b.build.hardware_threads, a.build.hardware_threads);
  ASSERT_EQ(b.cells.size(), a.cells.size());
  for (std::size_t i = 0; i < a.cells.size(); ++i) {
    const BenchCell& x = a.cells[i];
    const BenchCell& y = b.cells[i];
    EXPECT_EQ(y.workload, x.workload);
    EXPECT_EQ(y.instance, x.instance);
    EXPECT_EQ(y.n, x.n);
    EXPECT_EQ(y.m, x.m);
    EXPECT_EQ(y.solver, x.solver);
    EXPECT_EQ(y.ran, x.ran);
    EXPECT_EQ(y.skip_reason, x.skip_reason);
    EXPECT_EQ(y.seconds.samples, x.seconds.samples);
    EXPECT_DOUBLE_EQ(y.seconds.median, x.seconds.median);
    EXPECT_DOUBLE_EQ(y.seconds.mad, x.seconds.mad);
    EXPECT_DOUBLE_EQ(y.seconds.ci_lower, x.seconds.ci_lower);
    EXPECT_DOUBLE_EQ(y.seconds.ci_upper, x.seconds.ci_upper);
    EXPECT_EQ(y.phases, x.phases);
    EXPECT_EQ(y.counters, x.counters);
    EXPECT_EQ(y.counters_available, x.counters_available);
    EXPECT_EQ(y.ops, x.ops);
  }
}

TEST(BenchArtifact, OpsSerializeEveryFieldByName) {
  const json::Value doc = json::parse(artifact_json(small_artifact()));
  const json::Value& ops = doc.at("cells").as_array()[0].at("ops");
  EXPECT_EQ(ops.as_object().size(), kOpCounterFields.size());
  EXPECT_EQ(ops.at("arc_scans").as_double(), 67584.0);
  EXPECT_EQ(ops.at("feasibility_checks").as_double(), 0.0);
}

TEST(BenchArtifact, SkippedCellsSerializeWithoutTimingBlocks) {
  std::ostringstream os;
  write_artifact(os, small_artifact());
  const json::Value doc = json::parse(os.str());
  const auto& cells = doc.at("cells").as_array();
  const json::Value& skipped = cells.back();
  EXPECT_FALSE(skipped.at("ran").as_bool());
  EXPECT_EQ(skipped.at("skip_reason").as_string(), "mem");
  EXPECT_FALSE(skipped.has("seconds"));
  EXPECT_FALSE(skipped.has("counters"));
}

TEST(BenchArtifact, UnavailableCountersSerializeAsMarkerString) {
  BenchArtifact a = small_artifact();
  a.counters_backend = "unavailable";
  a.counters_fallback_reason = "EACCES";
  for (BenchCell& c : a.cells) {
    c.counters.clear();
    c.counters_available = false;
  }
  const json::Value doc = json::parse(artifact_json(a));
  EXPECT_EQ(doc.at("counters").as_string(), "unavailable");
  EXPECT_EQ(doc.at("counters_fallback_reason").as_string(), "EACCES");
  const json::Value& cell = doc.at("cells").as_array()[0];
  EXPECT_EQ(cell.at("counters").as_string(), "unavailable");
  const BenchArtifact b = artifact_from_json(doc);
  EXPECT_FALSE(b.cells[0].counters_available);
}

TEST(BenchArtifact, NewerSchemaVersionIsRejected) {
  BenchArtifact a = small_artifact();
  a.schema_version = kBenchSchemaVersion + 1;
  EXPECT_THROW((void)artifact_from_json(json::parse(artifact_json(a))),
               std::runtime_error);
  EXPECT_THROW((void)artifact_from_json(json::parse("{\"other\":1}")),
               std::runtime_error);
}

TEST(BenchDiff, SelfDiffIsClean) {
  const BenchArtifact a = small_artifact();
  const DiffReport report = diff_artifacts(a, a);
  EXPECT_EQ(report.regressions, 0);
  EXPECT_EQ(report.ops_changed, 0);
  EXPECT_EQ(report.improvements, 0);
  EXPECT_EQ(report.incomparable, 0);
  std::ostringstream os;
  print_diff(os, report, /*all_cells=*/false);
  EXPECT_NE(os.str().find("0 regression(s)"), std::string::npos) << os.str();
}

TEST(BenchDiff, AnyOpCountDifferenceFailsNamingCellAndField) {
  const BenchArtifact base = small_artifact();
  BenchArtifact cand = small_artifact();
  cand.cells[1].ops.arc_scans += 1;  // ko: one more scan, same time
  const DiffReport report = diff_artifacts(base, cand);
  EXPECT_EQ(report.regressions, 0);
  EXPECT_EQ(report.ops_changed, 1);
  const CellDiff* ko = nullptr;
  for (const CellDiff& d : report.cells) {
    if (d.solver == "ko") ko = &d;
  }
  ASSERT_NE(ko, nullptr);
  ASSERT_EQ(ko->ops_changes.size(), 1u);
  EXPECT_EQ(ko->ops_changes[0], "arc_scans 67584 -> 67585");
  std::ostringstream os;
  print_diff(os, report, /*all_cells=*/false);
  EXPECT_NE(os.str().find("OPS CHANGED"), std::string::npos) << os.str();
  EXPECT_NE(os.str().find("sprand/n128_m256/ko: arc_scans 67584 -> 67585"),
            std::string::npos)
      << os.str();
}

TEST(BenchDiff, FlagsSlowdownOutsideBaselineCi) {
  const BenchArtifact base = small_artifact();
  BenchArtifact cand = small_artifact();
  // howard: 10ms -> 14ms, way past the CI upper bound (12ms).
  cand.cells[0].seconds = stats_around(0.014, 0.002);
  const DiffReport report = diff_artifacts(base, cand, DiffOptions{5.0});
  EXPECT_EQ(report.regressions, 1);
  const CellDiff* howard = nullptr;
  for (const CellDiff& d : report.cells) {
    if (d.solver == "howard") howard = &d;
  }
  ASSERT_NE(howard, nullptr);
  EXPECT_TRUE(howard->regression);
  EXPECT_NEAR(howard->delta_pct, 40.0, 1e-9);
  std::ostringstream os;
  print_diff(os, report, /*all_cells=*/false);
  EXPECT_NE(os.str().find("REGRESSION"), std::string::npos) << os.str();
}

TEST(BenchDiff, CiGuardSuppressesNoiseWithinBounds) {
  const BenchArtifact base = small_artifact();
  BenchArtifact cand = small_artifact();
  // howard: 10ms -> 11.5ms is +15% but inside the baseline CI
  // [8ms, 12ms] — noise, not a regression.
  cand.cells[0].seconds = stats_around(0.0115, 0.002);
  const DiffReport report = diff_artifacts(base, cand, DiffOptions{5.0});
  EXPECT_EQ(report.regressions, 0);
}

TEST(BenchDiff, FlagsImprovementSymmetrically) {
  const BenchArtifact base = small_artifact();
  BenchArtifact cand = small_artifact();
  cand.cells[1].seconds = stats_around(0.010, 0.001);  // ko: 20ms -> 10ms
  const DiffReport report = diff_artifacts(base, cand);
  EXPECT_EQ(report.regressions, 0);
  EXPECT_EQ(report.improvements, 1);
}

TEST(BenchDiff, CounterAvailabilityAsymmetryIsANoteNotARegression) {
  const BenchArtifact base = small_artifact();  // counters available
  BenchArtifact cand = small_artifact();
  for (BenchCell& c : cand.cells) {
    c.counters.clear();
    c.counters_available = false;  // e.g. perf_event_open denied in CI
  }
  cand.counters_backend = "unavailable";
  const DiffReport report = diff_artifacts(base, cand, DiffOptions{5.0});
  EXPECT_EQ(report.regressions, 0);
  EXPECT_EQ(report.improvements, 0);
  bool saw_note = false;
  for (const CellDiff& d : report.cells) {
    if (!d.comparable) continue;
    EXPECT_TRUE(d.comparable);
    EXPECT_EQ(d.note, "counters: baseline only");
    EXPECT_TRUE(d.counter_delta_pct.empty());
    saw_note = true;
  }
  EXPECT_TRUE(saw_note);
  // And the mirror image: candidate gained counters the baseline lacks.
  const DiffReport mirror = diff_artifacts(cand, base, DiffOptions{5.0});
  EXPECT_EQ(mirror.regressions, 0);
  for (const CellDiff& d : mirror.cells) {
    if (d.comparable) {
      EXPECT_EQ(d.note, "counters: candidate only");
    }
  }
}

TEST(BenchDiff, CountersCompareOnlyMutuallyAvailableFields) {
  const BenchArtifact base = small_artifact();
  BenchArtifact cand = small_artifact();
  // Candidate dropped task_clock_ns and gained branch_misses; only the
  // shared "cycles" field should be compared.
  for (BenchCell& c : cand.cells) {
    c.counters.erase("task_clock_ns");
    c.counters["branch_misses"] = 777.0;
    c.counters["cycles"] = 1.5e6;  // +50% vs base's 1e6
  }
  const DiffReport report = diff_artifacts(base, cand, DiffOptions{5.0});
  EXPECT_EQ(report.regressions, 0);  // counters never drive the verdict
  for (const CellDiff& d : report.cells) {
    if (!d.comparable) continue;
    ASSERT_EQ(d.counter_delta_pct.size(), 1u);
    EXPECT_NEAR(d.counter_delta_pct.at("cycles"), 50.0, 1e-9);
  }
  std::ostringstream os;
  print_diff(os, report, /*all_cells=*/true);
  EXPECT_NE(os.str().find("cycles"), std::string::npos) << os.str();
}

TEST(BenchDiff, MissingNewAndSkipChangedCellsAreIncomparable) {
  const BenchArtifact base = small_artifact();
  BenchArtifact cand = small_artifact();
  cand.cells.erase(cand.cells.begin());             // howard gone
  cand.cells.back().ran = true;                     // karp now runs
  cand.cells.back().skip_reason.clear();
  cand.cells.back().seconds = stats_around(0.5, 0.1);
  BenchCell extra = ran_cell("n256_m512", "yto", 0.03, 0.01);
  cand.cells.push_back(extra);
  const DiffReport report = diff_artifacts(base, cand);
  EXPECT_EQ(report.regressions, 0);
  EXPECT_EQ(report.incomparable, 3);  // missing + skip-changed + new
}

TEST(SampleStatsSummary, MedianMadAndCi) {
  const SampleStats s = summarize_samples({0.5, 0.1, 0.3, 0.2, 0.4});
  EXPECT_DOUBLE_EQ(s.median, 0.3);
  EXPECT_DOUBLE_EQ(s.mad, 0.1);
  EXPECT_LE(s.ci_lower, s.median);
  EXPECT_GE(s.ci_upper, s.median);
  EXPECT_GE(s.ci_lower, 0.1);
  EXPECT_LE(s.ci_upper, 0.5);
  EXPECT_EQ(s.samples.size(), 5u);
}

TEST(SampleStatsSummary, DeterministicAcrossCalls) {
  const std::vector<double> samples{1.0, 1.2, 0.9, 1.1, 1.05, 0.95, 1.3};
  const SampleStats a = summarize_samples(samples);
  const SampleStats b = summarize_samples(samples);
  EXPECT_DOUBLE_EQ(a.ci_lower, b.ci_lower);
  EXPECT_DOUBLE_EQ(a.ci_upper, b.ci_upper);
}

TEST(SampleStatsSummary, TinySamplesDegenerateToMinMaxCi) {
  const SampleStats two = summarize_samples({2.0, 4.0});
  EXPECT_DOUBLE_EQ(two.median, 3.0);
  EXPECT_DOUBLE_EQ(two.ci_lower, 2.0);
  EXPECT_DOUBLE_EQ(two.ci_upper, 4.0);
  const SampleStats none = summarize_samples({});
  EXPECT_DOUBLE_EQ(none.median, 0.0);
  EXPECT_DOUBLE_EQ(none.mad, 0.0);
}

TEST(SampleStatsSummary, OutlierMovesMeanNotMedian) {
  const SampleStats s = summarize_samples({0.10, 0.11, 0.09, 0.10, 5.0});
  EXPECT_DOUBLE_EQ(s.median, 0.10);
  EXPECT_LE(s.mad, 0.02);
}

}  // namespace
}  // namespace mcr
