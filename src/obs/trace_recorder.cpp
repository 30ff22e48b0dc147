#include "obs/trace_recorder.h"

#include <ostream>
#include <sstream>
#include <utility>

#include "support/json.h"

namespace mcr::obs {

std::uint32_t TraceRecorder::thread_index_locked() {
  const auto id = std::this_thread::get_id();
  const auto it = thread_ids_.find(id);
  if (it != thread_ids_.end()) return it->second;
  const auto tid = static_cast<std::uint32_t>(thread_ids_.size());
  thread_ids_.emplace(id, tid);
  return tid;
}

void TraceRecorder::begin_span(EventKind kind, std::string_view name) {
  const double us = micros_now();
  std::lock_guard<std::mutex> lock(mutex_);
  events_.push_back(
      {kind, Phase::kBegin, std::string(name), 0, thread_index_locked(), us});
}

void TraceRecorder::end_span(EventKind kind) {
  const double us = micros_now();
  std::lock_guard<std::mutex> lock(mutex_);
  events_.push_back({kind, Phase::kEnd, std::string(), 0, thread_index_locked(), us});
}

void TraceRecorder::instant(EventKind kind, std::string_view name,
                            std::int64_t value) {
  const double us = micros_now();
  std::lock_guard<std::mutex> lock(mutex_);
  events_.push_back(
      {kind, Phase::kInstant, std::string(name), value, thread_index_locked(), us});
}

std::vector<TraceRecorder::Event> TraceRecorder::events() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return events_;
}

std::size_t TraceRecorder::num_threads() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return thread_ids_.size();
}

void TraceRecorder::write_chrome_trace(std::ostream& os) const {
  const std::vector<Event> log = events();
  std::string out;
  out.reserve(log.size() * 96 + 64);
  out += "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  // Per-thread stacks of open span names so "E" events can repeat the
  // name (Perfetto matches on it when present).
  std::map<std::uint32_t, std::vector<std::string>> open;
  const auto common = [&](const Event& e, const char* ph,
                          std::string_view name) {
    if (!first) out += ',';
    first = false;
    out += "{\"name\":\"";
    json::append_escaped(out, name);
    out += "\",\"cat\":\"";
    out += to_string(e.kind);
    out += "\",\"ph\":\"";
    out += ph;
    out += "\",\"ts\":";
    out += json::format_number(e.micros);
    out += ",\"pid\":1,\"tid\":";
    out += std::to_string(e.tid);
  };
  for (const Event& e : log) {
    switch (e.phase) {
      case Phase::kBegin:
        common(e, "B", e.name);
        out += '}';
        open[e.tid].push_back(e.name);
        break;
      case Phase::kEnd: {
        auto& stack = open[e.tid];
        const std::string name =
            stack.empty() ? std::string(to_string(e.kind)) : stack.back();
        if (!stack.empty()) stack.pop_back();
        common(e, "E", name);
        out += '}';
        break;
      }
      case Phase::kInstant:
        common(e, "i", e.name);
        out += ",\"s\":\"t\",\"args\":{\"value\":";
        out += std::to_string(e.value);
        out += "}}";
        break;
    }
  }
  out += "]}";
  os << out;
}

std::string TraceRecorder::chrome_trace_json() const {
  std::ostringstream os;
  write_chrome_trace(os);
  return os.str();
}

std::map<std::string, double> TraceRecorder::span_totals() const {
  const std::vector<Event> log = events();
  // Per-thread stack of begin timestamps; durations accumulate under
  // the span *kind* name, so the hundreds of per-component spans fold
  // into one "component" total.
  std::map<std::uint32_t, std::vector<double>> open;
  std::map<std::string, double> totals;
  for (const Event& e : log) {
    if (e.phase == Phase::kBegin) {
      open[e.tid].push_back(e.micros);
    } else if (e.phase == Phase::kEnd) {
      auto& stack = open[e.tid];
      if (stack.empty()) continue;  // unmatched end: ignore
      totals[to_string(e.kind)] += (e.micros - stack.back()) * 1e-6;
      stack.pop_back();
    }
  }
  return totals;
}

}  // namespace mcr::obs
