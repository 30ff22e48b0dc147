#include "obs/trace_recorder.h"

#include <ostream>
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

void TraceRecorder::push(Event&& e) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (events_.size() >= max_events_) {
    ++dropped_;
    return;
  }
  e.tid = thread_index_locked();
  events_.push_back(std::move(e));
}

void TraceRecorder::begin_span(EventKind kind, std::string_view name) {
  push({kind, Phase::kBegin, std::string(name), 0, 0, micros_now()});
}

void TraceRecorder::end_span(EventKind kind) {
  push({kind, Phase::kEnd, std::string(), 0, 0, micros_now()});
}

void TraceRecorder::instant(EventKind kind, std::string_view name,
                            std::int64_t value) {
  push({kind, Phase::kInstant, std::string(name), value, 0, micros_now()});
}

void TraceRecorder::record_span(EventKind kind, std::string_view name,
                                double begin_us, double end_us) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (events_.size() + 2 > max_events_) {
    dropped_ += 2;
    return;
  }
  const std::uint32_t tid = thread_index_locked();
  events_.push_back({kind, Phase::kBegin, std::string(name), 0, tid, begin_us});
  events_.push_back({kind, Phase::kEnd, std::string(), 0, tid, end_us});
}

std::vector<TraceRecorder::Event> TraceRecorder::events() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return events_;
}

std::uint64_t TraceRecorder::dropped_events() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return dropped_;
}

std::size_t TraceRecorder::num_threads() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return thread_ids_.size();
}

void TraceRecorder::write_chrome_trace(std::ostream& os) const { os << chrome_trace_json(); }

std::string TraceRecorder::chrome_trace_json() const {
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  append_chrome_events(out, 1);
  out += "]}";
  return out;
}

void TraceRecorder::append_chrome_events(std::string& out, int pid) const {
  const std::vector<Event> log = events();
  out.reserve(out.size() + log.size() * 96 + 64);
  // Per-thread stacks of open span names so "E" events can repeat the
  // name (Perfetto matches on it when present).
  std::map<std::uint32_t, std::vector<std::string>> open;
  for (const Event& e : log) {
    ChromeEvent c{.name = e.name, .cat = to_string(e.kind), .ph = "B", .ts = e.micros,
                  .pid = pid, .tid = e.tid};
    std::string end_name;
    std::string args;
    auto& stack = open[e.tid];
    if (e.phase == Phase::kBegin) {
      stack.push_back(e.name);
    } else if (e.phase == Phase::kEnd) {
      end_name = stack.empty() ? std::string(to_string(e.kind)) : stack.back();
      if (!stack.empty()) stack.pop_back();
      c.name = end_name;
      c.ph = "E";
    } else {
      args = "{\"value\":" + std::to_string(e.value) + "}";
      c.ph = "i";
      c.scope = "t";
      c.args = args;
    }
    append_chrome_event(out, c);
  }
}

void TraceRecorder::append_chrome_event(std::string& out, const ChromeEvent& e) {
  if (out.back() != '[') out += ',';
  out += "{\"name\":\"";
  json::append_escaped(out, e.name);
  if (!e.cat.empty()) {
    out += "\",\"cat\":\"";
    out += e.cat;
  }
  out += "\",\"ph\":\"";
  out += e.ph;
  out += '"';
  if (e.ts) {
    out += ",\"ts\":";
    out += json::format_number(*e.ts);
  }
  out += ",\"pid\":" + std::to_string(e.pid);
  out += ",\"tid\":" + std::to_string(e.tid);
  if (!e.scope.empty()) {
    out += ",\"s\":\"";
    out += e.scope;
    out += '"';
  }
  if (!e.args.empty()) {
    out += ",\"args\":";
    out += e.args;
  }
  out += '}';
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
