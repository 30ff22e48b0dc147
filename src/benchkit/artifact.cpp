#include "benchkit/artifact.h"

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string_view>

#include "support/json.h"
#include "support/table.h"

namespace mcr::bench {

namespace {

/// Shortest round-trip double formatting; JSON has no NaN/Inf, so
/// non-finite values (which our pipeline never produces) become 0.
std::string fmt_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  // Trim to the shortest representation that still round-trips.
  for (int prec = 1; prec < 17; ++prec) {
    char probe[32];
    std::snprintf(probe, sizeof(probe), "%.*g", prec, v);
    if (std::strtod(probe, nullptr) == v) return probe;
  }
  return buf;
}

void append_string(std::string& out, std::string_view s) {
  out += '"';
  json::append_escaped(out, s);
  out += '"';
}

void append_kv(std::string& out, std::string_view key, std::string_view value) {
  append_string(out, key);
  out += ':';
  append_string(out, value);
}

void append_kv_num(std::string& out, std::string_view key, double value) {
  append_string(out, key);
  out += ':';
  out += fmt_number(value);
}

void append_kv_int(std::string& out, std::string_view key, std::int64_t value) {
  append_string(out, key);
  out += ':';
  out += std::to_string(value);
}

void append_map(std::string& out, const std::map<std::string, double>& map) {
  out += '{';
  bool first = true;
  for (const auto& [key, value] : map) {
    if (!first) out += ',';
    first = false;
    append_kv_num(out, key, value);
  }
  out += '}';
}

std::map<std::string, double> map_from_json(const json::Value& v) {
  std::map<std::string, double> out;
  for (const auto& [key, value] : v.as_object()) {
    out[key] = value.as_double();
  }
  return out;
}

SampleStats stats_from_json(const json::Value& v) {
  SampleStats s;
  s.median = v.number_or("median", 0.0);
  s.mad = v.number_or("mad", 0.0);
  s.ci_lower = v.number_or("ci_lower", s.median);
  s.ci_upper = v.number_or("ci_upper", s.median);
  if (v.has("samples")) {
    for (const json::Value& sample : v.at("samples").as_array()) {
      s.samples.push_back(sample.as_double());
    }
  }
  return s;
}

std::string cell_key(const std::string& workload, const std::string& instance,
                     const std::string& solver) {
  return workload + '\x1f' + instance + '\x1f' + solver;
}

}  // namespace

std::string artifact_json(const BenchArtifact& artifact) {
  std::string out;
  out.reserve(4096 + artifact.cells.size() * 512);
  out += "{";
  append_kv(out, "schema", "mcr-bench");
  out += ',';
  append_kv_int(out, "schema_version", artifact.schema_version);
  out += ',';
  append_kv(out, "name", artifact.name);
  out += ',';
  append_kv(out, "scale", artifact.scale);
  out += ',';
  append_kv_int(out, "warmup", artifact.warmup);
  out += ',';
  append_kv_int(out, "repetitions", artifact.repetitions);
  out += ',';
  append_kv(out, "counters", artifact.counters_backend);
  if (!artifact.counters_fallback_reason.empty()) {
    out += ',';
    append_kv(out, "counters_fallback_reason", artifact.counters_fallback_reason);
  }
  out += ',';
  append_string(out, "build");
  out += ":{";
  append_kv(out, "git_sha", artifact.build.git_sha);
  out += ',';
  append_kv(out, "compiler", artifact.build.compiler);
  out += ',';
  append_kv(out, "flags", artifact.build.flags);
  out += ',';
  append_kv(out, "build_type", artifact.build.build_type);
  out += ',';
  append_kv(out, "cpu_model", artifact.build.cpu_model);
  out += ',';
  append_kv(out, "governor", artifact.build.governor);
  out += ',';
  append_kv_int(out, "hardware_threads", artifact.build.hardware_threads);
  out += "},";
  append_string(out, "cells");
  out += ":[";
  bool first_cell = true;
  for (const BenchCell& cell : artifact.cells) {
    if (!first_cell) out += ',';
    first_cell = false;
    out += '{';
    append_kv(out, "workload", cell.workload);
    out += ',';
    append_kv(out, "instance", cell.instance);
    out += ',';
    append_kv_int(out, "n", cell.n);
    out += ',';
    append_kv_int(out, "m", cell.m);
    out += ',';
    append_kv(out, "solver", cell.solver);
    out += ',';
    append_string(out, "ran");
    out += cell.ran ? ":true" : ":false";
    if (!cell.ran) {
      out += ',';
      append_kv(out, "skip_reason", cell.skip_reason);
      out += '}';
      continue;
    }
    out += ',';
    append_string(out, "seconds");
    out += ":{";
    append_kv_num(out, "median", cell.seconds.median);
    out += ',';
    append_kv_num(out, "mad", cell.seconds.mad);
    out += ',';
    append_kv_num(out, "ci_lower", cell.seconds.ci_lower);
    out += ',';
    append_kv_num(out, "ci_upper", cell.seconds.ci_upper);
    out += ',';
    append_string(out, "samples");
    out += ":[";
    for (std::size_t i = 0; i < cell.seconds.samples.size(); ++i) {
      if (i != 0) out += ',';
      out += fmt_number(cell.seconds.samples[i]);
    }
    out += "]},";
    append_string(out, "phases");
    out += ':';
    append_map(out, cell.phases);
    out += ',';
    append_string(out, "counters");
    out += ':';
    if (cell.counters_available) {
      append_map(out, cell.counters);
    } else {
      append_string(out, "unavailable");
    }
    out += ',';
    append_string(out, "ops");
    out += ":{";
    bool first_op = true;
    for (const OpCounterField& f : kOpCounterFields) {
      if (!first_op) out += ',';
      first_op = false;
      append_string(out, f.name);
      out += ':';
      out += std::to_string(cell.ops.*f.member);
    }
    out += "}}";
  }
  out += "]}";
  return out;
}

void write_artifact(std::ostream& os, const BenchArtifact& artifact) {
  os << artifact_json(artifact) << '\n';
}

BenchArtifact artifact_from_json(const json::Value& doc) {
  BenchArtifact a;
  if (doc.string_or("schema", "") != "mcr-bench") {
    throw std::runtime_error("not an mcr-bench artifact (missing schema marker)");
  }
  a.schema_version = static_cast<int>(doc.at("schema_version").as_double());
  if (a.schema_version > kBenchSchemaVersion) {
    throw std::runtime_error(
        "artifact schema_version " + std::to_string(a.schema_version) +
        " is newer than this binary (" + std::to_string(kBenchSchemaVersion) + ")");
  }
  a.name = doc.string_or("name", "");
  a.scale = doc.string_or("scale", "");
  a.warmup = static_cast<int>(doc.number_or("warmup", 0));
  a.repetitions = static_cast<int>(doc.number_or("repetitions", 0));
  a.counters_backend = doc.string_or("counters", "unavailable");
  a.counters_fallback_reason = doc.string_or("counters_fallback_reason", "");
  if (doc.has("build")) {
    const json::Value& b = doc.at("build");
    a.build.git_sha = b.string_or("git_sha", "unknown");
    a.build.compiler = b.string_or("compiler", "unknown");
    a.build.flags = b.string_or("flags", "");
    a.build.build_type = b.string_or("build_type", "");
    a.build.cpu_model = b.string_or("cpu_model", "unknown");
    a.build.governor = b.string_or("governor", "unknown");
    a.build.hardware_threads = static_cast<int>(b.number_or("hardware_threads", 0));
  }
  for (const json::Value& c : doc.at("cells").as_array()) {
    BenchCell cell;
    cell.workload = c.at("workload").as_string();
    cell.instance = c.at("instance").as_string();
    cell.n = static_cast<NodeId>(c.number_or("n", 0));
    cell.m = static_cast<ArcId>(c.number_or("m", 0));
    cell.solver = c.at("solver").as_string();
    cell.ran = c.at("ran").as_bool();
    if (!cell.ran) {
      cell.skip_reason = c.string_or("skip_reason", "");
    } else {
      cell.seconds = stats_from_json(c.at("seconds"));
      if (c.has("phases")) cell.phases = map_from_json(c.at("phases"));
      if (c.has("counters") && c.at("counters").is_object()) {
        cell.counters = map_from_json(c.at("counters"));
        cell.counters_available = true;
      }
      if (c.has("ops")) {
        for (const OpCounterField& f : kOpCounterFields) {
          cell.ops.*f.member = static_cast<std::uint64_t>(c.at("ops").number_or(f.name, 0.0));
        }
      }
    }
    a.cells.push_back(std::move(cell));
  }
  return a;
}

BenchArtifact load_artifact(const std::string& path) {
  return artifact_from_json(json::parse_file(path));
}

DiffReport diff_artifacts(const BenchArtifact& baseline,
                          const BenchArtifact& candidate,
                          const DiffOptions& options) {
  DiffReport report;
  std::map<std::string, const BenchCell*> candidate_cells;
  for (const BenchCell& cell : candidate.cells) {
    candidate_cells[cell_key(cell.workload, cell.instance, cell.solver)] = &cell;
  }

  for (const BenchCell& base : baseline.cells) {
    CellDiff d;
    d.workload = base.workload;
    d.instance = base.instance;
    d.solver = base.solver;
    const std::string key = cell_key(base.workload, base.instance, base.solver);
    const auto it = candidate_cells.find(key);
    if (it == candidate_cells.end()) {
      d.note = "missing in candidate";
      ++report.incomparable;
      report.cells.push_back(std::move(d));
      continue;
    }
    const BenchCell& cand = *it->second;
    candidate_cells.erase(it);
    if (!base.ran || !cand.ran) {
      if (base.ran != cand.ran) {
        d.note = base.ran ? "newly skipped: " + cand.skip_reason
                          : "newly runs (was " + base.skip_reason + ")";
        ++report.incomparable;
      }  // both skipped: silently fine, not even listed
      report.cells.push_back(std::move(d));
      continue;
    }
    d.comparable = true;
    d.baseline_median = base.seconds.median;
    d.candidate_median = cand.seconds.median;
    if (base.seconds.median > 0.0) {
      d.delta_pct =
          (cand.seconds.median - base.seconds.median) / base.seconds.median * 100.0;
    }
    // Perf counters: compare only fields both sides recorded. Whether a
    // run has counters at all depends on the machine (perf_event_open
    // permissions), so availability asymmetry is a note, not a verdict.
    if (base.counters_available != cand.counters_available) {
      d.note = base.counters_available ? "counters: baseline only"
                                       : "counters: candidate only";
    } else if (base.counters_available) {
      for (const auto& [field, base_value] : base.counters) {
        const auto cit = cand.counters.find(field);
        if (cit == cand.counters.end() || base_value == 0.0) continue;
        d.counter_delta_pct[field] =
            (cit->second - base_value) / base_value * 100.0;
      }
    }
    for (const OpCounterField& f : kOpCounterFields) {
      const std::uint64_t was = base.ops.*f.member;
      const std::uint64_t now = cand.ops.*f.member;
      if (was != now) {
        d.ops_changes.push_back(std::string(f.name) + " " + std::to_string(was) + " -> " +
                                std::to_string(now));
      }
    }
    if (!d.ops_changes.empty()) ++report.ops_changed;
    const double threshold = options.threshold_pct;
    // Regression: slower than the threshold AND outside the baseline's
    // CI (so a wide, noisy baseline cannot flag).
    if (d.delta_pct > threshold && cand.seconds.median > base.seconds.ci_upper) {
      d.regression = true;
      ++report.regressions;
    } else if (d.delta_pct < -threshold &&
               cand.seconds.median < base.seconds.ci_lower) {
      d.improvement = true;
      ++report.improvements;
    }
    report.cells.push_back(std::move(d));
  }
  // Cells only the candidate has: informational.
  for (const auto& [key, cell] : candidate_cells) {
    (void)key;
    CellDiff d;
    d.workload = cell->workload;
    d.instance = cell->instance;
    d.solver = cell->solver;
    d.note = "new in candidate";
    ++report.incomparable;
    report.cells.push_back(std::move(d));
  }
  return report;
}

void print_diff(std::ostream& os, const DiffReport& report, bool all_cells) {
  TextTable table({"workload", "instance", "solver", "baseline", "candidate",
                   "delta", "verdict"});
  std::size_t listed = 0;
  for (const CellDiff& d : report.cells) {
    const bool interesting =
        d.regression || d.improvement || !d.ops_changes.empty() || !d.note.empty();
    if (!all_cells && !interesting) continue;
    ++listed;
    std::string verdict = "ok";
    if (d.regression) verdict = "REGRESSION";
    else if (!d.ops_changes.empty()) verdict = "OPS CHANGED";
    else if (d.improvement) verdict = "improved";
    else if (!d.note.empty()) verdict = d.note;
    table.add_row({d.workload, d.instance, d.solver,
                   d.comparable ? fmt_ms(d.baseline_median) : "-",
                   d.comparable ? fmt_ms(d.candidate_median) : "-",
                   d.comparable ? fmt_fixed(d.delta_pct, 1) + "%" : "-", verdict});
  }
  if (listed != 0) {
    table.print(os);
  } else if (!all_cells) {
    os << "(no per-cell changes to report)\n";
  }
  for (const CellDiff& d : report.cells) {
    if (d.ops_changes.empty()) continue;
    os << "  ops " << d.workload << '/' << d.instance << '/' << d.solver << ':';
    for (const std::string& change : d.ops_changes) os << ' ' << change << ';';
    os << '\n';
  }
  if (all_cells) {
    for (const CellDiff& d : report.cells) {
      if (d.counter_delta_pct.empty()) continue;
      os << "  counters " << d.workload << '/' << d.instance << '/' << d.solver
         << ':';
      for (const auto& [key, pct] : d.counter_delta_pct) {
        os << ' ' << key << ' ' << fmt_fixed(pct, 1) << '%';
      }
      os << '\n';
    }
  }
  os << report.cells.size() << " cells compared: " << report.regressions
     << " regression(s), " << report.ops_changed << " with changed op counts, "
     << report.improvements << " improvement(s), " << report.incomparable
     << " incomparable\n";
}

}  // namespace mcr::bench
