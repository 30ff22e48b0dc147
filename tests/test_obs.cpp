// mcr::obs — tracing sinks, the TraceRecorder + Chrome exporter, and
// the metrics registry. The contracts under test:
//   * Span/SinkScope are RAII and thread-local; the null-sink path is a
//     strict no-op and the sink is restored on scope exit.
//   * TraceRecorder logs properly nested begin/end pairs per thread and
//     its Chrome export is syntactically valid JSON with the right
//     event phases.
//   * Solver-work metrics recorded by the parallel driver are identical
//     for every thread count (the deterministic-merge contract extended
//     to observability).
#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/driver.h"
#include "core/registry.h"
#include "gen/circuit.h"
#include "gen/structured.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "obs/trace_recorder.h"
#include "obs/windowed.h"
#include "support/prng.h"
#include "support/thread_pool.h"

namespace mcr {
namespace {

using obs::EventKind;
using obs::TraceRecorder;

// --- Minimal JSON syntax checker --------------------------------------
// Validates the subset the exporters emit (objects, arrays, strings
// with escapes, numbers, literals) so exporter tests don't depend on an
// external parser. Returns true iff the whole input is one JSON value.
class JsonChecker {
 public:
  explicit JsonChecker(std::string_view s) : s_(s) {}

  bool valid() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == s_.size();
  }

 private:
  bool value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{':
        return object();
      case '[':
        return array();
      case '"':
        return string();
      case 't':
        return literal("true");
      case 'f':
        return literal("false");
      case 'n':
        return literal("null");
      default:
        return number();
    }
  }
  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') return ++pos_, true;
    while (true) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (peek() != ':') return false;
      ++pos_;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == '}') return ++pos_, true;
      return false;
    }
  }
  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (peek() == ']') return ++pos_, true;
    while (true) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == ']') return ++pos_, true;
      return false;
    }
  }
  bool string() {
    if (peek() != '"') return false;
    ++pos_;
    while (pos_ < s_.size()) {
      const char c = s_[pos_];
      if (static_cast<unsigned char>(c) < 0x20) return false;  // raw control
      if (c == '"') return ++pos_, true;
      if (c == '\\') {
        ++pos_;
        if (pos_ >= s_.size()) return false;
        const char e = s_[pos_];
        if (e == 'u') {
          for (int i = 0; i < 4; ++i) {
            ++pos_;
            if (pos_ >= s_.size() || !std::isxdigit(static_cast<unsigned char>(s_[pos_]))) {
              return false;
            }
          }
        } else if (std::string_view("\"\\/bfnrt").find(e) == std::string_view::npos) {
          return false;
        }
      }
      ++pos_;
    }
    return false;  // unterminated
  }
  bool number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    if (peek() == '.') {
      ++pos_;
      while (std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    }
    if (peek() == 'e' || peek() == 'E') {
      ++pos_;
      if (peek() == '+' || peek() == '-') ++pos_;
      while (std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    }
    return pos_ > start;
  }
  bool literal(std::string_view word) {
    if (s_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }
  [[nodiscard]] char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
  void skip_ws() {
    while (pos_ < s_.size() && (s_[pos_] == ' ' || s_[pos_] == '\n' ||
                                s_[pos_] == '\t' || s_[pos_] == '\r')) {
      ++pos_;
    }
  }

  std::string_view s_;
  std::size_t pos_ = 0;
};

// --- Sink installation and the null path ------------------------------

TEST(ObsSink, DefaultIsNullAndEmitIsNoOp) {
  EXPECT_EQ(obs::current_sink(), nullptr);
  obs::emit(EventKind::kIteration, "nobody.listening", 42);  // must not crash
  const obs::Span span(EventKind::kSolve, "untraced");
  EXPECT_EQ(obs::current_sink(), nullptr);
}

TEST(ObsSink, SinkScopeInstallsAndRestores) {
  TraceRecorder rec;
  {
    const obs::SinkScope scope(&rec);
    EXPECT_EQ(obs::current_sink(), &rec);
    {
      const obs::SinkScope inner(nullptr);  // explicit disable nests too
      EXPECT_EQ(obs::current_sink(), nullptr);
    }
    EXPECT_EQ(obs::current_sink(), &rec);
    obs::emit(EventKind::kIteration, "scoped", 1);
  }
  EXPECT_EQ(obs::current_sink(), nullptr);
  ASSERT_EQ(rec.events().size(), 1u);
  EXPECT_EQ(rec.events()[0].name, "scoped");
}

TEST(ObsSink, SinkIsThreadLocal) {
  TraceRecorder rec;
  const obs::SinkScope scope(&rec);
  obs::TraceSink* seen_on_other_thread = &rec;  // must be overwritten
  std::thread t([&] { seen_on_other_thread = obs::current_sink(); });
  t.join();
  EXPECT_EQ(seen_on_other_thread, nullptr);
  EXPECT_EQ(obs::current_sink(), &rec);
}

// --- TraceRecorder: ordering, nesting, export -------------------------

TEST(TraceRecorder, RecordsNestedSpansInOrder) {
  TraceRecorder rec;
  {
    const obs::SinkScope scope(&rec);
    const obs::Span outer(EventKind::kSolve, "solve:test");
    {
      const obs::Span inner(EventKind::kSccDecompose, "scc_decompose");
      obs::emit(EventKind::kIteration, "iter", 3);
    }
  }
  const auto events = rec.events();
  ASSERT_EQ(events.size(), 5u);
  EXPECT_EQ(events[0].phase, TraceRecorder::Phase::kBegin);
  EXPECT_EQ(events[0].kind, EventKind::kSolve);
  EXPECT_EQ(events[1].phase, TraceRecorder::Phase::kBegin);
  EXPECT_EQ(events[1].kind, EventKind::kSccDecompose);
  EXPECT_EQ(events[2].phase, TraceRecorder::Phase::kInstant);
  EXPECT_EQ(events[2].value, 3);
  EXPECT_EQ(events[3].phase, TraceRecorder::Phase::kEnd);
  EXPECT_EQ(events[3].kind, EventKind::kSccDecompose);
  EXPECT_EQ(events[4].phase, TraceRecorder::Phase::kEnd);
  EXPECT_EQ(events[4].kind, EventKind::kSolve);
  // Timestamps are monotone within the single emitting thread.
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_GE(events[i].micros, events[i - 1].micros);
    EXPECT_EQ(events[i].tid, 0u);
  }
  EXPECT_EQ(rec.num_threads(), 1u);
}

TEST(TraceRecorder, ChromeExportIsValidJsonWithBalancedPhases) {
  TraceRecorder rec;
  {
    const obs::SinkScope scope(&rec);
    const obs::Span outer(EventKind::kSolve, "solve:howard");
    const obs::Span comp(EventKind::kComponent, "component#0 n=5 m=7");
    obs::emit(EventKind::kPolicyImprove, "howard.policy_improve", 2);
  }
  const std::string json = rec.chrome_trace_json();
  EXPECT_TRUE(JsonChecker(json).valid()) << json;
  // Two "B", two "E", one "i" — counted crudely but unambiguously since
  // ph values are single-character strings.
  const auto count = [&](const std::string& needle) {
    std::size_t n = 0;
    for (std::size_t p = json.find(needle); p != std::string::npos;
         p = json.find(needle, p + 1)) {
      ++n;
    }
    return n;
  };
  EXPECT_EQ(count("\"ph\":\"B\""), 2u);
  EXPECT_EQ(count("\"ph\":\"E\""), 2u);
  EXPECT_EQ(count("\"ph\":\"i\""), 1u);
}

TEST(TraceRecorder, ExportEscapesHostileNames) {
  TraceRecorder rec;
  {
    const obs::SinkScope scope(&rec);
    obs::emit(EventKind::kIteration, "quote\"back\\slash\nnew\ttab\x01ctl", 1);
  }
  const std::string json = rec.chrome_trace_json();
  EXPECT_TRUE(JsonChecker(json).valid()) << json;
}

TEST(TraceRecorder, AssignsDenseThreadIdsAcrossWorkers) {
  TraceRecorder rec;
  constexpr int kThreads = 4;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&rec] {
      const obs::SinkScope scope(&rec);
      const obs::Span span(EventKind::kComponent, "component");
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(rec.num_threads(), static_cast<std::size_t>(kThreads));
  for (const auto& e : rec.events()) {
    EXPECT_LT(e.tid, static_cast<std::uint32_t>(kThreads));
  }
}

TEST(TraceRecorder, SpanTotalsSumNestedAndConcurrentSpans) {
  TraceRecorder rec;
  {
    const obs::SinkScope scope(&rec);
    const obs::Span outer(EventKind::kSolve, "solve:x");
    const obs::Span c1(EventKind::kComponent, "component#0");
  }
  const auto totals = rec.span_totals();
  ASSERT_TRUE(totals.count("solve"));
  ASSERT_TRUE(totals.count("component"));
  // The component span is nested inside the solve span, so its total
  // cannot exceed the solve total (single thread).
  EXPECT_LE(totals.at("component"), totals.at("solve"));
  EXPECT_GE(totals.at("component"), 0.0);
}

// --- Traced solves through the driver ---------------------------------

Graph multi_scc_graph() {
  gen::CircuitConfig cc;
  cc.registers = 120;
  cc.module_size = 8;
  cc.seed = 7;
  return gen::circuit(cc);
}

TEST(TracedSolve, DriverEmitsBalancedPhaseSpans) {
  const Graph g = multi_scc_graph();
  TraceRecorder rec;
  const auto solver = SolverRegistry::instance().create("howard");
  const SolveOptions options{.num_threads = 2, .trace = &rec};
  const CycleResult r = minimum_cycle_mean(g, *solver, options);
  ASSERT_TRUE(r.has_cycle);

  // Begin/end balance per kind, and per-thread stack discipline.
  std::map<std::string, int> open;
  std::map<std::uint32_t, std::vector<EventKind>> stacks;
  for (const auto& e : rec.events()) {
    if (e.phase == TraceRecorder::Phase::kBegin) {
      ++open[obs::to_string(e.kind)];
      stacks[e.tid].push_back(e.kind);
    } else if (e.phase == TraceRecorder::Phase::kEnd) {
      --open[obs::to_string(e.kind)];
      ASSERT_FALSE(stacks[e.tid].empty());
      EXPECT_EQ(stacks[e.tid].back(), e.kind);
      stacks[e.tid].pop_back();
    }
  }
  for (const auto& [kind, n] : open) EXPECT_EQ(n, 0) << kind;
  EXPECT_GE(open.size(), 3u);  // solve, scc_decompose, component at least
  EXPECT_TRUE(open.count("solve"));
  EXPECT_TRUE(open.count("scc_decompose"));
  EXPECT_TRUE(open.count("component"));
  EXPECT_TRUE(open.count("merge"));
  EXPECT_TRUE(JsonChecker(rec.chrome_trace_json()).valid());
}

TEST(TracedSolve, UntracedSolveMatchesTracedSolve) {
  const Graph g = multi_scc_graph();
  const auto solver = SolverRegistry::instance().create("howard");
  TraceRecorder rec;
  const CycleResult plain = minimum_cycle_mean(g, *solver);
  const CycleResult traced =
      minimum_cycle_mean(g, *solver, SolveOptions{.num_threads = 1, .trace = &rec});
  EXPECT_EQ(plain.value, traced.value);
  EXPECT_EQ(plain.cycle, traced.cycle);
  EXPECT_EQ(plain.counters, traced.counters);
  EXPECT_FALSE(rec.events().empty());
}

// --- TeeSink fan-out --------------------------------------------------

TEST(TeeSink, ForwardsToBothBranches) {
  TraceRecorder a;
  TraceRecorder b;
  obs::TeeSink tee(&a, &b);
  ASSERT_EQ(tee.effective(), &tee);
  {
    const obs::SinkScope scope(tee.effective());
    const obs::Span span(EventKind::kRequest, "PING");
    obs::emit(EventKind::kIteration, "iter", 7);
  }
  ASSERT_EQ(a.events().size(), 3u);
  ASSERT_EQ(b.events().size(), 3u);
  EXPECT_EQ(a.events()[1].name, "iter");
  EXPECT_EQ(b.events()[1].value, 7);
}

TEST(TeeSink, EffectiveCollapsesNullBranches) {
  TraceRecorder rec;
  obs::TeeSink both_null(nullptr, nullptr);
  EXPECT_EQ(both_null.effective(), nullptr);
  obs::TeeSink left(&rec, nullptr);
  EXPECT_EQ(left.effective(), &rec);
  obs::TeeSink right(nullptr, &rec);
  EXPECT_EQ(right.effective(), &rec);
}

// --- FlightRecorder: retention, pinning, sampling, export -------------

obs::FlightRecorder::Options tiny_flight(std::size_t capacity,
                                         std::size_t pinned,
                                         double slow_ms) {
  obs::FlightRecorder::Options o;
  o.capacity = capacity;
  o.pinned_capacity = pinned;
  o.slow_ms = slow_ms;
  o.sample_rate = 0.0;
  return o;
}

TEST(FlightRecorder, RingEvictsOldestDeterministically) {
  obs::FlightRecorder fr(tiny_flight(4, 4, -1.0));  // slow-pinning off
  for (int i = 0; i < 10; ++i) {
    auto t = fr.begin("id" + std::to_string(i), "SOLVE", "");
    fr.finish(t, "", 1.0);
  }
  EXPECT_EQ(fr.ring_size(), 4u);
  EXPECT_EQ(fr.pinned_size(), 0u);
  EXPECT_EQ(fr.finished_total(), 10u);
  EXPECT_EQ(fr.evicted_total(), 6u);
  // Exactly the newest four survive, oldest first.
  const auto kept = fr.select({});
  ASSERT_EQ(kept.size(), 4u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(kept[static_cast<std::size_t>(i)]->trace_id(),
              "id" + std::to_string(6 + i));
  }
}

TEST(FlightRecorder, ErroredTracesSurviveRingEviction) {
  obs::FlightRecorder fr(tiny_flight(2, 4, -1.0));
  auto bad = fr.begin("failing", "SOLVE", "");
  fr.finish(bad, "INTERNAL", 0.5);
  EXPECT_TRUE(bad->pinned());
  for (int i = 0; i < 8; ++i) {
    auto t = fr.begin("ok" + std::to_string(i), "SOLVE", "");
    fr.finish(t, "", 0.1);
  }
  // Long gone from the two-slot ring, still reachable via the pin.
  obs::FlightRecorder::Filter by_id;
  by_id.trace_id = "failing";
  const auto found = fr.select(by_id);
  ASSERT_EQ(found.size(), 1u);
  EXPECT_EQ(found[0]->error_code(), "INTERNAL");
  EXPECT_TRUE(found[0]->pinned());
}

TEST(FlightRecorder, SlowThresholdControlsPinning) {
  obs::FlightRecorder fr(tiny_flight(8, 8, 100.0));
  auto fast = fr.begin("fast", "SOLVE", "");
  fr.finish(fast, "", 50.0);
  auto slow = fr.begin("slow", "SOLVE", "");
  fr.finish(slow, "", 150.0);
  EXPECT_FALSE(fast->pinned());
  EXPECT_TRUE(slow->pinned());
  EXPECT_EQ(fr.pinned_size(), 1u);

  // slow_ms == 0 pins everything; the pinned set still keeps its bound.
  obs::FlightRecorder all(tiny_flight(8, 2, 0.0));
  for (int i = 0; i < 6; ++i) {
    std::string id = "t";
    id += std::to_string(i);
    auto t = all.begin(std::move(id), "PING", "");
    all.finish(t, "", 0.0);
  }
  EXPECT_EQ(all.pinned_size(), 2u);
  EXPECT_EQ(all.ring_size(), 6u);
}

TEST(FlightRecorder, PinnedTraceAppearsOnceInSelect) {
  obs::FlightRecorder fr(tiny_flight(4, 4, 0.0));  // everything pinned
  auto t = fr.begin("dup", "SOLVE", "");
  fr.finish(t, "", 1.0);
  EXPECT_EQ(fr.ring_size(), 1u);
  EXPECT_EQ(fr.pinned_size(), 1u);
  EXPECT_EQ(fr.select({}).size(), 1u);  // ring + pin deduplicated
}

TEST(FlightRecorder, SelectFiltersByVerbDurationAndLimit) {
  obs::FlightRecorder fr(tiny_flight(16, 4, -1.0));
  for (int i = 0; i < 6; ++i) {
    std::string id = "s";
    id += std::to_string(i);
    auto t = fr.begin(std::move(id), i % 2 ? "SOLVE" : "PING", "");
    fr.finish(t, "", i % 2 ? 200.0 : 1.0);
  }
  obs::FlightRecorder::Filter by_verb;
  by_verb.verb = "SOLVE";
  EXPECT_EQ(fr.select(by_verb).size(), 3u);
  obs::FlightRecorder::Filter by_ms;
  by_ms.min_ms = 100.0;
  EXPECT_EQ(fr.select(by_ms).size(), 3u);
  obs::FlightRecorder::Filter capped;
  capped.limit = 2;
  const auto newest = fr.select(capped);
  ASSERT_EQ(newest.size(), 2u);  // trimmed to the newest two, oldest first
  EXPECT_EQ(newest[0]->trace_id(), "s4");
  EXPECT_EQ(newest[1]->trace_id(), "s5");
}

TEST(FlightRecorder, SamplingIsAPureFunctionOfTraceId) {
  obs::FlightRecorder never(tiny_flight(4, 4, -1.0));
  obs::FlightRecorder::Options always_opts = tiny_flight(4, 4, -1.0);
  always_opts.sample_rate = 1.0;
  obs::FlightRecorder always(always_opts);
  obs::FlightRecorder::Options half_opts = tiny_flight(4, 4, -1.0);
  half_opts.sample_rate = 0.5;
  obs::FlightRecorder half(half_opts);

  int sampled = 0;
  for (int i = 0; i < 200; ++i) {
    const std::string id = "trace-" + std::to_string(i);
    EXPECT_FALSE(never.would_sample(id));
    EXPECT_TRUE(always.would_sample(id));
    const bool first = half.would_sample(id);
    EXPECT_EQ(half.would_sample(id), first);  // reproducible per id
    sampled += first ? 1 : 0;
  }
  EXPECT_GT(sampled, 50);   // loose two-sided bound on a fair-ish hash
  EXPECT_LT(sampled, 150);
  // begin() honours the same decision.
  EXPECT_TRUE(always.begin("x", "SOLVE", "")->sampled());
  EXPECT_FALSE(never.begin("x", "SOLVE", "")->sampled());
}

TEST(FlightRecorder, TraceCapsEventsAndCountsDrops) {
  obs::FlightRecorder fr(tiny_flight(2, 2, -1.0));
  auto t = fr.begin("big", "SOLVE", "");
  const std::size_t emissions = obs::RequestTrace::kMaxEvents + 100;
  for (std::size_t i = 0; i < emissions; ++i) {
    t->instant(EventKind::kIteration, "iter", static_cast<std::int64_t>(i));
  }
  fr.finish(t, "", 1.0);
  EXPECT_EQ(t->events().size(), obs::RequestTrace::kMaxEvents);
  EXPECT_EQ(t->dropped_events(), 100u);
}

TEST(FlightRecorder, ChromeExportIsValidAndCarriesIdentity) {
  obs::FlightRecorder fr(tiny_flight(8, 4, -1.0));
  auto t = fr.begin("abc123", "SOLVE", "attempt/2");
  t->begin_span(EventKind::kRequest, "SOLVE");
  t->record_span(EventKind::kQueue, "queue", 10.0, 20.0);
  t->begin_span(EventKind::kDispatch, "howard");
  t->instant(EventKind::kIteration, "iter", 5);
  t->end_span(EventKind::kDispatch);
  t->end_span(EventKind::kRequest);
  t->note("algo", "howard");
  fr.finish(t, "", 12.5);

  const std::string json = fr.chrome_trace_json({});
  EXPECT_TRUE(JsonChecker(json).valid()) << json;
  EXPECT_NE(json.find("\"trace_id\":\"abc123\""), std::string::npos);
  EXPECT_NE(json.find("\"parent_span\":\"attempt/2\""), std::string::npos);
  EXPECT_NE(json.find("process_name"), std::string::npos);
  EXPECT_NE(json.find("request_info"), std::string::npos);
  EXPECT_NE(json.find("\"algo\":\"howard\""), std::string::npos);

  // The post-mortem dump is the same exporter over everything retained.
  const std::string dump = fr.dump_json();
  EXPECT_TRUE(JsonChecker(dump).valid()) << dump;
  EXPECT_NE(dump.find("abc123"), std::string::npos);
}

TEST(FlightRecorder, ConcurrentRequestsStayBounded) {
  obs::FlightRecorder fr(tiny_flight(8, 4, 0.0));  // pin everything
  constexpr int kThreads = 4;
  constexpr int kPerThread = 50;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int w = 0; w < kThreads; ++w) {
    threads.emplace_back([&fr, w] {
      for (int i = 0; i < kPerThread; ++i) {
        std::string id = "w";
        id += std::to_string(w);
        id += '-';
        id += std::to_string(i);
        auto t = fr.begin(std::move(id), "SOLVE", "");
        t->begin_span(EventKind::kRequest, "SOLVE");
        t->end_span(EventKind::kRequest);
        fr.finish(t, i % 7 == 0 ? "BUSY" : "", 1.0);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(fr.finished_total(),
            static_cast<std::uint64_t>(kThreads * kPerThread));
  EXPECT_LE(fr.ring_size(), 8u);
  EXPECT_LE(fr.pinned_size(), 4u);
  EXPECT_TRUE(JsonChecker(fr.dump_json()).valid());
}

// --- Metrics instruments ----------------------------------------------

TEST(Metrics, CounterGaugeBasics) {
  obs::MetricsRegistry reg;
  obs::Counter& c = reg.counter("mcr_test_total");
  c.add();
  c.add(4);
  EXPECT_EQ(c.value(), 5u);
  EXPECT_EQ(&reg.counter("mcr_test_total"), &c);  // same instrument back

  obs::Gauge& ga = reg.gauge("mcr_test_gauge");
  ga.set(-3);
  ga.add(10);
  EXPECT_EQ(ga.value(), 7);
}

TEST(Metrics, CrossTypeNameReuseThrows) {
  obs::MetricsRegistry reg;
  (void)reg.counter("mcr_name");
  EXPECT_THROW((void)reg.gauge("mcr_name"), std::invalid_argument);
  EXPECT_THROW((void)reg.histogram("mcr_name"), std::invalid_argument);
}

TEST(Metrics, HistogramBucketsArePrometheusStyle) {
  obs::MetricsRegistry reg;
  obs::Histogram& h = reg.histogram("mcr_lat_seconds", {0.1, 1.0, 10.0});
  h.observe(0.05);   // bucket 0
  h.observe(0.5);    // bucket 1
  h.observe(1.0);    // bucket 1 (le is inclusive)
  h.observe(100.0);  // +Inf bucket
  const auto snap = h.snapshot();
  ASSERT_EQ(snap.bounds.size(), 3u);
  ASSERT_EQ(snap.counts.size(), 4u);
  EXPECT_EQ(snap.counts[0], 1u);
  EXPECT_EQ(snap.counts[1], 2u);
  EXPECT_EQ(snap.counts[2], 0u);
  EXPECT_EQ(snap.counts[3], 1u);
  EXPECT_EQ(snap.count, 4u);
  EXPECT_DOUBLE_EQ(snap.sum, 101.55);

  const std::string text = reg.prometheus_text();
  EXPECT_NE(text.find("# TYPE mcr_lat_seconds histogram"), std::string::npos);
  // Bucket counts are cumulative in the text exposition.
  EXPECT_NE(text.find("mcr_lat_seconds_bucket{le=\"1\"} 3"), std::string::npos);
  EXPECT_NE(text.find("mcr_lat_seconds_bucket{le=\"+Inf\"} 4"), std::string::npos);
  EXPECT_NE(text.find("mcr_lat_seconds_count 4"), std::string::npos);
}

TEST(Metrics, PrometheusTextGroupsLabelVariants) {
  obs::MetricsRegistry reg;
  reg.counter("mcr_pool_tasks_total{worker=\"0\"}").add(3);
  reg.counter("mcr_pool_tasks_total{worker=\"1\"}").add(5);
  const std::string text = reg.prometheus_text();
  // One TYPE line for the base name, both labeled samples present.
  std::size_t type_lines = 0;
  for (std::size_t p = text.find("# TYPE mcr_pool_tasks_total counter");
       p != std::string::npos;
       p = text.find("# TYPE mcr_pool_tasks_total counter", p + 1)) {
    ++type_lines;
  }
  EXPECT_EQ(type_lines, 1u);
  EXPECT_NE(text.find("mcr_pool_tasks_total{worker=\"0\"} 3"), std::string::npos);
  EXPECT_NE(text.find("mcr_pool_tasks_total{worker=\"1\"} 5"), std::string::npos);
}

TEST(Metrics, JsonExportIsValid) {
  obs::MetricsRegistry reg;
  reg.counter("mcr_a_total").add(1);
  reg.gauge("mcr_b").set(-7);
  reg.histogram("mcr_c_seconds", {0.5}).observe(0.1);
  const std::string json = reg.json();
  EXPECT_TRUE(JsonChecker(json).valid()) << json;
  EXPECT_NE(json.find("\"mcr_a_total\":1"), std::string::npos);
  EXPECT_NE(json.find("\"mcr_b\":-7"), std::string::npos);
  EXPECT_NE(json.find("\"+Inf\""), std::string::npos);
}

TEST(Metrics, LabeledHistogramExportsGroupedPrometheusText) {
  obs::MetricsRegistry reg;
  reg.histogram("mcr_req_seconds", {0.1, 1.0}).observe(0.05);
  reg.histogram("mcr_req_seconds{verb=\"SOLVE\"}", {0.1, 1.0}).observe(0.5);
  reg.histogram("mcr_req_seconds{verb=\"PING\"}", {0.1, 1.0}).observe(0.01);
  const std::string text = reg.prometheus_text();
  // One TYPE line for the family, labels merged ahead of le on buckets,
  // and appended whole on _sum/_count.
  std::size_t type_lines = 0;
  for (std::size_t p = text.find("# TYPE mcr_req_seconds histogram");
       p != std::string::npos;
       p = text.find("# TYPE mcr_req_seconds histogram", p + 1)) {
    ++type_lines;
  }
  EXPECT_EQ(type_lines, 1u);
  EXPECT_NE(text.find("mcr_req_seconds_bucket{le=\"0.1\"} 1"), std::string::npos)
      << text;
  EXPECT_NE(text.find("mcr_req_seconds_bucket{verb=\"SOLVE\",le=\"1\"} 1"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("mcr_req_seconds_bucket{verb=\"PING\",le=\"+Inf\"} 1"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("mcr_req_seconds_count{verb=\"SOLVE\"} 1"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("mcr_req_seconds_sum{verb=\"PING\"} 0.01"),
            std::string::npos)
      << text;
}

TEST(Metrics, HistogramExemplarKeepsWorstRecentPerBucket) {
  obs::MetricsRegistry reg;
  obs::Histogram& h = reg.histogram("mcr_ex_seconds", {0.1, 1.0});
  h.observe(0.5, "trace-a");
  h.observe(0.8, "trace-b");   // worse in the same bucket: replaces a
  h.observe(0.6, "trace-c");   // better while b is fresh: kept out
  h.observe(0.02, "trace-d");  // different bucket, lands independently
  h.observe(5.0, "trace-inf");
  const auto snap = h.snapshot();
  ASSERT_EQ(snap.exemplars.size(), snap.counts.size());
  EXPECT_EQ(snap.exemplars[0].label, "trace-d");
  EXPECT_EQ(snap.exemplars[1].label, "trace-b");
  EXPECT_DOUBLE_EQ(snap.exemplars[1].value, 0.8);
  EXPECT_EQ(snap.exemplars[2].label, "trace-inf");  // +Inf bucket

  // Equal observations take over (recency wins ties)...
  h.observe(0.8, "trace-e");
  EXPECT_EQ(h.snapshot().exemplars[1].label, "trace-e");
  // ...and an unlabeled observation never clears a held exemplar.
  h.observe(0.9);
  EXPECT_EQ(h.snapshot().exemplars[1].label, "trace-e");

  // JSON exposes the exemplar next to its bucket; classic text does not
  // (the exposition format has no exemplar syntax).
  const std::string json = reg.json();
  EXPECT_TRUE(JsonChecker(json).valid()) << json;
  EXPECT_NE(json.find("\"exemplar\":{\"value\":0.8,\"label\":\"trace-e\"}"),
            std::string::npos)
      << json;
  EXPECT_EQ(reg.prometheus_text().find("trace-e"), std::string::npos);
}

// --- Label escaping (Prometheus exposition format) --------------------

TEST(Metrics, EscapeLabelValueHandlesBackslashQuoteNewline) {
  EXPECT_EQ(obs::escape_label_value("plain"), "plain");
  EXPECT_EQ(obs::escape_label_value("a\\b"), "a\\\\b");
  EXPECT_EQ(obs::escape_label_value("say \"hi\""), "say \\\"hi\\\"");
  EXPECT_EQ(obs::escape_label_value("two\nlines"), "two\\nlines");
  EXPECT_EQ(obs::escape_label_value("-O2 -DW=\"x\\y\"\n"),
            "-O2 -DW=\\\"x\\\\y\\\"\\n");
}

TEST(Metrics, LabeledNameEscapesEveryValue) {
  EXPECT_EQ(obs::labeled_name("mcr_x_total", {{"worker", "3"}}),
            "mcr_x_total{worker=\"3\"}");
  EXPECT_EQ(obs::labeled_name("mcr_build_info",
                              {{"flags", "-DA=\"q\\r\""}, {"note", "a\nb"}}),
            "mcr_build_info{flags=\"-DA=\\\"q\\\\r\\\"\",note=\"a\\nb\"}");
  EXPECT_EQ(obs::labeled_name("mcr_plain", {}), "mcr_plain");
}

TEST(Metrics, HostileLabelValuesSurviveBothExports) {
  obs::MetricsRegistry reg;
  reg.gauge(obs::labeled_name(
                "mcr_build_info",
                {{"flags", "-fplugin=\"weird\\path\""}, {"cpu_model", "a\nb"}}))
      .set(1);
  const std::string text = reg.prometheus_text();
  // One sample line, escapes intact, no raw newline smuggled into it.
  EXPECT_NE(text.find("flags=\"-fplugin=\\\"weird\\\\path\\\"\""),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("cpu_model=\"a\\nb\""), std::string::npos) << text;
  EXPECT_EQ(text.find("a\nb"), std::string::npos) << text;
  EXPECT_TRUE(JsonChecker(reg.json()).valid()) << reg.json();
}

// --- TraceRecorder under concurrent producers and a live exporter -----

TEST(TraceRecorder, ConcurrentSpansWhileRecorderExports) {
  TraceRecorder rec;
  constexpr int kWorkers = 4;
  constexpr int kIterations = 200;
  std::atomic<int> active{kWorkers};
  std::vector<std::thread> workers;
  workers.reserve(kWorkers);
  for (int t = 0; t < kWorkers; ++t) {
    workers.emplace_back([&rec, &active] {
      const obs::SinkScope scope(&rec);
      for (int i = 0; i < kIterations; ++i) {
        const obs::Span outer(EventKind::kComponent, "component#w");
        obs::emit(EventKind::kIteration, "iter", i);
        const obs::Span inner(EventKind::kMerge, "merge");
      }
      active.fetch_sub(1, std::memory_order_release);
    });
  }
  // Export continuously while the pool-worker spans are still flowing —
  // the recorder must hand back consistent snapshots, never torn ones.
  std::size_t last_size = 0;
  while (active.load(std::memory_order_acquire) > 0) {
    const std::string json = rec.chrome_trace_json();
    ASSERT_TRUE(JsonChecker(json).valid());
    const auto totals = rec.span_totals();
    for (const auto& [kind, seconds] : totals) EXPECT_GE(seconds, 0.0) << kind;
    const std::size_t size = rec.events().size();
    EXPECT_GE(size, last_size);  // the log only grows
    last_size = size;
  }
  for (auto& t : workers) t.join();

  // Final log: complete, balanced per thread, valid export.
  const auto events = rec.events();
  EXPECT_EQ(events.size(),
            static_cast<std::size_t>(kWorkers * kIterations * 5));
  std::map<std::uint32_t, int> depth;
  for (const auto& e : events) {
    if (e.phase == TraceRecorder::Phase::kBegin) ++depth[e.tid];
    if (e.phase == TraceRecorder::Phase::kEnd) {
      --depth[e.tid];
      ASSERT_GE(depth[e.tid], 0);
    }
  }
  for (const auto& [tid, d] : depth) EXPECT_EQ(d, 0) << "tid " << tid;
  EXPECT_EQ(rec.num_threads(), static_cast<std::size_t>(kWorkers));
  EXPECT_TRUE(JsonChecker(rec.chrome_trace_json()).valid());
}

// --- Driver metrics: the determinism contract -------------------------

std::map<std::string, std::uint64_t> solver_work_metrics(const Graph& g, int threads) {
  obs::MetricsRegistry reg;
  const auto solver = SolverRegistry::instance().create("howard");
  const SolveOptions options{.num_threads = threads, .metrics = &reg};
  (void)minimum_cycle_mean(g, *solver, options);
  // Re-read through the registry: only the deterministic solver-work
  // counters, not the scheduling-dependent mcr_pool_* ones.
  std::map<std::string, std::uint64_t> out;
  for (const char* name :
       {"mcr_solves_total", "mcr_components_cyclic_total", "mcr_ops_iterations_total",
        "mcr_ops_arc_scans_total", "mcr_ops_relaxations_total",
        "mcr_ops_node_visits_total", "mcr_ops_heap_total",
        "mcr_ops_feasibility_checks_total", "mcr_ops_cycle_evaluations_total"}) {
    out[name] = reg.counter(name).value();
  }
  return out;
}

TEST(DriverMetrics, SolverWorkTotalsIdenticalForAnyThreadCount) {
  const Graph g = multi_scc_graph();
  const auto serial = solver_work_metrics(g, 1);
  EXPECT_GT(serial.at("mcr_components_cyclic_total"), 1u);
  EXPECT_GT(serial.at("mcr_ops_arc_scans_total"), 0u);
  for (const int threads : {2, 8}) {
    EXPECT_EQ(solver_work_metrics(g, threads), serial) << threads << " threads";
  }
}

TEST(DriverMetrics, ComponentHistogramCountsComponents) {
  const Graph g = multi_scc_graph();
  obs::MetricsRegistry reg;
  const auto solver = SolverRegistry::instance().create("howard");
  (void)minimum_cycle_mean(g, *solver, SolveOptions{.num_threads = 4, .metrics = &reg});
  const auto snap = reg.histogram("mcr_component_solve_seconds").snapshot();
  EXPECT_EQ(snap.count, reg.counter("mcr_components_cyclic_total").value());
  EXPECT_GE(snap.sum, 0.0);
}

// --- Windowed telemetry -----------------------------------------------

TEST(WindowedQuantile, GuardsDegenerateFamilies) {
  // No observations: undefined, never 0 or NaN.
  EXPECT_FALSE(obs::histogram_quantile({}, {}, 0, 0.5).has_value());
  EXPECT_FALSE(obs::histogram_quantile({1.0}, {0, 0}, 0, 0.99).has_value());
  // Observations but no finite bounds (single +Inf bucket): nothing to
  // interpolate against.
  EXPECT_FALSE(obs::histogram_quantile({}, {5}, 5, 0.5).has_value());
  // All mass in the +Inf bucket: the largest finite bound, as a floor.
  const auto inf_floor = obs::histogram_quantile({1.0}, {0, 5}, 5, 0.5);
  ASSERT_TRUE(inf_floor.has_value());
  EXPECT_DOUBLE_EQ(*inf_floor, 1.0);
  // The regular interpolated case, for contrast: rank 5 of 10 lands
  // mid-bucket between 1 and 2.
  const auto mid = obs::histogram_quantile({1.0, 2.0}, {0, 10, 10}, 10, 0.5);
  ASSERT_TRUE(mid.has_value());
  EXPECT_DOUBLE_EQ(*mid, 1.5);
}

TEST(WindowedHistogram, RotationDeterminismWithFakeClock) {
  std::int64_t now = 0;
  obs::SlidingWindowHistogram::Options o;
  o.window_seconds = 6.0;
  o.slots = 3;  // 2s sub-windows
  o.clock = [&now] { return now; };
  obs::SlidingWindowHistogram h({1.0, 10.0}, o);

  h.observe(0.5);  // tick 0
  now = 2'000'000'000;
  h.observe(5.0);  // tick 1
  now = 4'000'000'000;
  h.observe(0.5);  // tick 2
  auto s = h.snapshot();
  EXPECT_EQ(s.count, 3u);
  EXPECT_DOUBLE_EQ(s.sum, 6.0);

  // Advancing one sub-window ages exactly the oldest slot out — no
  // observation is ever half-expired.
  now = 6'000'000'000;  // tick 3
  s = h.snapshot();
  EXPECT_EQ(s.count, 2u);
  EXPECT_DOUBLE_EQ(s.sum, 5.5);

  // Recording in tick 3 reuses (and resets) the ring slot tick 0 held.
  h.observe(20.0);
  s = h.snapshot();
  EXPECT_EQ(s.count, 3u);
  ASSERT_EQ(s.counts.size(), 3u);
  EXPECT_EQ(s.counts[2], 1u);  // 20.0 in the +Inf bucket

  // Far future: everything aged out; covered spans the live (empty)
  // window, not the histogram's whole lifetime.
  now = 12'000'000'000;  // tick 6; oldest live tick is 4
  s = h.snapshot();
  EXPECT_EQ(s.count, 0u);
  EXPECT_DOUBLE_EQ(s.sum, 0.0);
  EXPECT_NEAR(s.covered_seconds, 4.0, 1e-9);
}

TEST(WindowedHistogram, MergeMatchesReferenceCumulative) {
  // While nothing has aged out, the merged window must agree exactly
  // with a cumulative histogram fed the same stream.
  std::int64_t now = 0;
  obs::SlidingWindowHistogram::Options o;
  o.window_seconds = 60.0;
  o.slots = 6;  // 10s sub-windows; we stay within ticks 0..5
  o.clock = [&now] { return now; };
  const std::vector<double> bounds{0.25, 0.5, 1.0};
  obs::SlidingWindowHistogram windowed(bounds, o);
  obs::Histogram reference(bounds);

  Prng prng(42);
  for (int i = 0; i < 5000; ++i) {
    now = prng.uniform_int(0, 59) * 1'000'000'000;
    const double x = prng.uniform_real() * 2.0;
    windowed.observe(x);
    reference.observe(x);
  }
  const auto w = windowed.snapshot();
  const auto r = reference.snapshot();
  EXPECT_EQ(w.count, r.count);
  ASSERT_EQ(w.counts.size(), r.counts.size());
  for (std::size_t i = 0; i < w.counts.size(); ++i) {
    EXPECT_EQ(w.counts[i], r.counts[i]) << "bucket " << i;
  }
  EXPECT_NEAR(w.sum, r.sum, 1e-6);
  // And the cumulative transform feeding histogram_quantile is a plain
  // prefix sum.
  const auto cumulative = obs::SlidingWindowHistogram::cumulative_counts(w);
  ASSERT_EQ(cumulative.size(), w.counts.size());
  EXPECT_EQ(cumulative.back(), w.count);
}

TEST(WindowedHistogram, ConcurrentRecordReadStaysBounded) {
  // Hammer a tiny, fast-rotating window from several writers while a
  // reader merges continuously. The documented contract: the merge
  // never *exceeds* what was recorded (observations racing a rotation
  // may drop, never double), and nothing trips TSan.
  obs::SlidingWindowHistogram::Options o;
  o.window_seconds = 0.05;
  o.slots = 5;
  obs::SlidingWindowHistogram h({0.5}, o);
  constexpr int kWriters = 4;
  constexpr int kPerWriter = 20000;
  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> bad{0};
  std::thread reader([&] {
    while (!done.load()) {
      const auto s = h.snapshot();
      if (s.count > static_cast<std::uint64_t>(kWriters) * kPerWriter) {
        bad.fetch_add(1);
      }
    }
  });
  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&] {
      for (int i = 0; i < kPerWriter; ++i) h.observe(i % 2 == 0 ? 0.25 : 0.75);
    });
  }
  for (std::thread& t : writers) t.join();
  done.store(true);
  reader.join();
  EXPECT_EQ(bad.load(), 0u);
  // The final snapshot is similarly bounded.
  EXPECT_LE(h.snapshot().count,
            static_cast<std::uint64_t>(kWriters) * kPerWriter);
}

TEST(Metrics, WindowedSharesHistogramNamesButConflictsWithScalars) {
  obs::MetricsRegistry reg;
  // Deliberate: the windowed instrument is the live view of the same
  // family as the cumulative histogram.
  reg.histogram("mcr_request_seconds", {0.1, 1.0}).observe(0.5);
  reg.windowed_histogram("mcr_request_seconds", {0.1, 1.0}).observe(0.5);
  // Scalar instruments still conflict, in both directions.
  (void)reg.counter("mcr_taken_total");
  EXPECT_THROW((void)reg.windowed_histogram("mcr_taken_total"),
               std::invalid_argument);
  (void)reg.windowed_histogram("mcr_windowed_only_seconds");
  EXPECT_THROW((void)reg.counter("mcr_windowed_only_seconds"),
               std::invalid_argument);
  EXPECT_THROW((void)reg.gauge("mcr_windowed_only_seconds"),
               std::invalid_argument);
  // JSON exposes windowed instruments under their own key; the classic
  // Prometheus text has no windowed semantics and must not grow a
  // colliding series.
  const std::string json = reg.json();
  EXPECT_TRUE(JsonChecker(json).valid()) << json;
  EXPECT_NE(json.find("\"windowed\":"), std::string::npos) << json;
  EXPECT_EQ(reg.prometheus_text().find("mcr_windowed_only_seconds"),
            std::string::npos);
  const auto snapshots = reg.windowed_snapshots();
  ASSERT_EQ(snapshots.size(), 2u);  // the shared name and the windowed-only one
  EXPECT_EQ(snapshots.at("mcr_request_seconds").count, 1u);
}

TEST(Metrics, ExemplarStaleTakeoverWithInjectedClock) {
  obs::MetricsRegistry reg;
  obs::Histogram& h = reg.histogram("mcr_stale_seconds", {1.0});
  std::chrono::steady_clock::time_point now{};
  h.set_exemplar_clock([&now] { return now; });

  h.observe(0.9, "trace-slow");
  h.observe(0.5, "trace-better");  // smaller while the holder is fresh
  EXPECT_EQ(h.snapshot().exemplars[0].label, "trace-slow");

  // Past the 60s staleness horizon a *smaller* observation takes the
  // slot over — "worst recent", not "worst ever".
  now += std::chrono::seconds(61);
  h.observe(0.1, "trace-fresh");
  auto snap = h.snapshot();
  EXPECT_EQ(snap.exemplars[0].label, "trace-fresh");
  EXPECT_DOUBLE_EQ(snap.exemplars[0].value, 0.1);

  // Within the horizon the usual worst-wins rule is back.
  now += std::chrono::seconds(30);
  h.observe(0.05, "trace-small");
  EXPECT_EQ(h.snapshot().exemplars[0].label, "trace-fresh");
}

// --- ThreadPool worker stats ------------------------------------------

TEST(ThreadPoolStats, TasksExecutedSumsToSubmitted) {
  ThreadPool pool(3);
  pool.run(500, [](std::size_t) {});
  const auto stats = pool.worker_stats();
  ASSERT_EQ(stats.size(), 3u);
  std::uint64_t total = 0;
  for (const auto& w : stats) {
    total += w.tasks_executed;
    EXPECT_GE(w.idle_seconds, 0.0);
  }
  EXPECT_EQ(total, 500u);
}

}  // namespace
}  // namespace mcr
