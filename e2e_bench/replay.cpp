// Traced in-process replay of the server's per-request call sequence.
#include <sstream>
#include <stdexcept>
#include <thread>

#include "e2e.h"
#include "graph/fingerprint.h"
#include "graph/io.h"
#include "obs/metrics.h"
#include "obs/trace_recorder.h"
#include "svc/graph_registry.h"
#include "svc/protocol.h"
#include "svc/result_json.h"

namespace e2e {

namespace {

using mcr::obs::EventKind;

/// Kind of the replay's own layer spans; the core driver's spans keep theirs.
constexpr EventKind kLayer = EventKind::kRequest;

/// Forwards spans to a TraceRecorder and drops the solvers' iteration
/// instants, which would outnumber the layer spans in the exported trace.
class SpanSink final : public mcr::obs::TraceSink {
 public:
  explicit SpanSink(mcr::obs::TraceRecorder& recorder) : recorder_(recorder) {}
  void begin_span(EventKind kind, std::string_view name) override {
    recorder_.begin_span(kind, name);
  }
  void end_span(EventKind kind) override { recorder_.end_span(kind); }
  void instant(EventKind, std::string_view, std::int64_t) override {}

 private:
  mcr::obs::TraceRecorder& recorder_;
};

bool is_driver_phase(EventKind kind) {
  return kind == EventKind::kSccDecompose || kind == EventKind::kComponent ||
         kind == EventKind::kMerge || kind == EventKind::kWitnessExtract;
}

constexpr std::string_view kDriverPrefix = "core.driver.";

/// The server's request-latency bucket bounds (svc/server.cpp): log-spaced,
/// three per decade, 10us..10s. The server builds them afresh per call.
std::vector<double> request_seconds_bounds() {
  std::vector<double> bounds;
  for (double decade = 1e-5; decade < 10.0; decade *= 10.0) {
    bounds.push_back(decade);
    bounds.push_back(decade * 2.1544346900318837);
    bounds.push_back(decade * 4.6415888336127790);
  }
  bounds.push_back(10.0);
  return bounds;
}

/// One request through the server's sequence; returns the frame it sends.
std::string replay_one(std::string_view payload, mcr::svc::GraphRegistry& registry,
                       mcr::svc::ResultCache& cache,
                       std::map<std::string, mcr::obs::MetricsRegistry>& ops,
                       mcr::obs::TraceSink* sink) {
  const mcr::obs::Span request(kLayer, "svc.request");
  const mcr::json::Value req = [&] {
    const mcr::obs::Span s(kLayer, "support.json.parse");
    return mcr::json::parse(payload);
  }();
  std::shared_ptr<const mcr::Graph> graph;
  std::string fp;
  if (req.has("dimacs")) {
    mcr::Graph g = [&] {
      const mcr::obs::Span s(kLayer, "graph.io.read_dimacs");
      std::istringstream is(req.at("dimacs").as_string());
      return mcr::read_dimacs(is);
    }();
    {
      const mcr::obs::Span s(kLayer, "graph.fingerprint");
      fp = mcr::fingerprint_hex(g);
    }
    // GraphRegistry::add is fingerprint_hex plus this insertion.
    const mcr::obs::Span s(kLayer, "svc.graph_registry.add");
    graph = std::make_shared<const mcr::Graph>(std::move(g));
    registry.add_shared(fp, graph);
  } else {
    const mcr::obs::Span s(kLayer, "svc.graph_registry.find");
    fp = req.at("fingerprint").as_string();
    graph = registry.find(fp);
    if (graph == nullptr) throw std::runtime_error("replay: graph " + fp + " not resident");
  }
  std::string response;
  if (req.at("verb").as_string() == "LOAD") {
    response = R"({"status":"ok","fingerprint":")" + fp + R"(","nodes":)" +
               std::to_string(graph->num_nodes()) +
               ",\"arcs\":" + std::to_string(graph->num_arcs()) +
               ",\"resident_graphs\":" + std::to_string(registry.size()) + "}";
  } else {
    const std::string objective = req.string_or("objective", "min_mean");
    const std::string algo =
        req.string_or("algo", objective.ends_with("ratio") ? "howard_ratio" : "howard");
    const mcr::svc::CacheKey key{fp, objective, algo};
    mcr::svc::ResultCache::Outcome outcome = [&] {
      const mcr::obs::Span s(kLayer, "svc.cache.acquire");
      return cache.acquire(key);
    }();
    bool cached = true;
    if (outcome.role != mcr::svc::ResultCache::Role::kHit) {
      cached = false;
      const auto start = Clock::now();
      {
        const mcr::obs::Span s(kLayer, std::string(kDriverPrefix) + algo);
        outcome.result = solve(*graph, objective, algo,
                               {.num_threads = 1, .trace = sink, .metrics = &ops[algo]});
      }
      outcome.solve_ms = ms_between(start, Clock::now());
      const mcr::obs::Span s(kLayer, "svc.cache.publish");
      cache.publish(key, outcome.result, outcome.solve_ms);
    }
    const mcr::obs::Span s(kLayer, "svc.result_json");
    response = std::string(R"({"status":"ok","cached":)") + (cached ? "true" : "false") +
               R"(,"fingerprint":")" + fp + R"(","result":)" +
               mcr::svc::result_json(outcome.result, algo, objective, outcome.solve_ms) +
               "}";
  }
  const mcr::obs::Span s(kLayer, "svc.protocol.encode_frame");
  return mcr::svc::encode_frame(response);
}

}  // namespace

ReplayResult replay(const std::vector<std::string_view>& payloads,
                    const ReplayOptions& options) {
  mcr::obs::TraceRecorder recorder;
  SpanSink sink(recorder);
  mcr::svc::GraphRegistry registry(64);
  auto cache = std::make_unique<mcr::svc::ResultCache>(1024);
  std::map<std::string, mcr::obs::MetricsRegistry> ops;
  for (const Instance* in : options.resident) registry.add_shared(in->fingerprint, in->graph);
  for (const auto& [key, result] : options.cached) {
    (void)cache->acquire(key);
    cache->publish(key, result, 0.0);
  }
  {
    const mcr::obs::SinkScope scope(&sink);
    for (const std::string_view payload : payloads) {
      if (options.fresh_cache) cache = std::make_unique<mcr::svc::ResultCache>(1024);
      (void)replay_one(payload, registry, *cache, ops, &sink);
    }
  }

  // Self time = a span's duration minus the durations of its children.
  // Driver phases are summed per solve under their core.driver.<solver> span.
  struct Open {
    EventKind kind;
    std::string name;
    double begin_us = 0;
    double child_us = 0;
    double solve_us = 0;
    std::map<std::string, double> phase_us;
  };
  ReplayResult out;
  std::map<std::uint32_t, std::vector<Open>> stacks;
  for (const auto& e : recorder.events()) {
    auto& stack = stacks[e.tid];
    if (e.phase == mcr::obs::TraceRecorder::Phase::kBegin) {
      stack.push_back({e.kind, e.name, e.micros, 0, 0, {}});
      continue;
    }
    if (e.phase != mcr::obs::TraceRecorder::Phase::kEnd || stack.empty()) continue;
    Open span = std::move(stack.back());
    stack.pop_back();
    const double dur = e.micros - span.begin_us;
    if (!stack.empty()) stack.back().child_us += dur;
    if (span.kind != kLayer) {
      if (!is_driver_phase(span.kind)) continue;
      for (auto it = stack.rbegin(); it != stack.rend(); ++it) {
        if (it->name.starts_with(kDriverPrefix)) {
          it->phase_us[mcr::obs::to_string(span.kind)] += dur;
          break;
        }
      }
      continue;
    }
    out.self_us[span.name].push_back(dur - span.child_us);
    if (span.name.starts_with(kDriverPrefix)) {
      auto& phases = out.phase_ms[span.name.substr(kDriverPrefix.size())];
      for (const char* phase : {"scc_decompose", "component", "witness_extract", "merge"}) {
        phases[phase].push_back(span.phase_us[phase] / 1000.0);
      }
      if (!stack.empty()) stack.back().solve_us += dur;
    } else if (span.name == "svc.request") {
      out.outside_solve_ms.push_back((dur - span.solve_us) / 1000.0);
    }
  }
  for (const auto& [algo, metrics] : ops) {
    const auto counters = metrics.counter_values();
    const double solves = static_cast<double>(counters.at("mcr_solves_total"));
    for (const char* op : {"iterations", "arc_scans", "relaxations", "heap"}) {
      out.ops_per_solve[algo][op] =
          static_cast<double>(counters.at(std::string("mcr_ops_") + op + "_total")) / solves;
    }
  }
  out.chrome_trace = recorder.chrome_trace_json();
  return out;
}

std::vector<double> replay_finish_request(int threads, int iterations) {
  mcr::obs::MetricsRegistry metrics;
  const std::string verb_counter =
      mcr::obs::labeled_name("mcr_requests_total", {{"verb", "SOLVE"}});
  const std::string verb_histogram =
      mcr::obs::labeled_name("mcr_request_seconds", {{"verb", "SOLVE"}});
  std::vector<std::vector<double>> samples(static_cast<std::size_t>(threads));
  {
    std::vector<std::jthread> pool;
    for (int t = 0; t < threads; ++t) {
      pool.emplace_back([&, t] {
        const std::string trace_id = "e2e-replay-" + std::to_string(t);
        auto& mine = samples[static_cast<std::size_t>(t)];
        mine.reserve(static_cast<std::size_t>(iterations));
        for (int i = 0; i < iterations; ++i) {
          const double seconds = 1e-5 * static_cast<double>(1 + i % 97);
          const auto start = Clock::now();
          metrics.counter(verb_counter).add(1);
          metrics.histogram("mcr_request_seconds", request_seconds_bounds())
              .observe(seconds, trace_id);
          metrics.histogram(verb_histogram, request_seconds_bounds())
              .observe(seconds, trace_id);
          metrics.windowed_histogram("mcr_request_seconds", request_seconds_bounds())
              .observe(seconds);
          metrics.windowed_histogram(verb_histogram, request_seconds_bounds())
              .observe(seconds);
          mine.push_back(ms_between(start, Clock::now()) * 1000.0);
        }
      });
    }
  }
  std::vector<double> all;
  for (const auto& s : samples) all.insert(all.end(), s.begin(), s.end());
  return all;
}

}  // namespace e2e
