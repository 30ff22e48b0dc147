#include "obs/flight_recorder.h"

#include <csignal>
#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <utility>

#include "support/json.h"
#include "support/prng.h"

namespace mcr::obs {

// ---------------------------------------------------------------------------
// RequestTrace

void RequestTrace::note(std::string_view key, std::string_view value) {
  std::lock_guard<std::mutex> lock(notes_mutex_);
  notes_.emplace_back(std::string(key), std::string(value));
}

std::vector<std::pair<std::string, std::string>> RequestTrace::notes() const {
  std::lock_guard<std::mutex> lock(notes_mutex_);
  return notes_;
}

// ---------------------------------------------------------------------------
// FlightRecorder

FlightRecorder::FlightRecorder(Options options) : options_(options) {}

double FlightRecorder::now_us() const {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

bool FlightRecorder::would_sample(std::string_view trace_id) const {
  if (options_.sample_rate >= 1.0) return true;
  if (options_.sample_rate <= 0.0) return false;
  const std::uint64_t h = splitmix64(fnv1a(trace_id) ^ options_.sample_salt);
  const double u = static_cast<double>(h >> 11) * 0x1.0p-53;
  return u < options_.sample_rate;
}

std::shared_ptr<RequestTrace> FlightRecorder::begin(std::string trace_id,
                                                    std::string verb,
                                                    std::string parent_span) {
  const bool sampled = would_sample(trace_id);
  // Private constructor: make_shared cannot reach it, and the trace is
  // small, so plain new is fine here.
  return std::shared_ptr<RequestTrace>(
      new RequestTrace(std::move(trace_id), std::move(verb),
                       std::move(parent_span), sampled, now_us(), epoch_));
}

void FlightRecorder::finish(const std::shared_ptr<RequestTrace>& trace,
                            std::string_view error_code, double duration_ms) {
  if (trace == nullptr) return;
  // Outcome fields are written before the trace becomes visible in the
  // ring; the publishing mutex below orders them for readers.
  trace->duration_ms_ = duration_ms;
  trace->error_code_ = std::string(error_code);
  trace->pinned_ = !trace->error_code_.empty() ||
                   (options_.slow_ms >= 0.0 && duration_ms >= options_.slow_ms);

  std::lock_guard<std::mutex> lock(mutex_);
  ++finished_;
  recent_.push_back(trace);
  while (recent_.size() > options_.capacity) {
    recent_.pop_front();
    ++evicted_;
  }
  if (trace->pinned_) {
    pinned_.push_back(trace);
    while (pinned_.size() > options_.pinned_capacity) pinned_.pop_front();
  }
}

std::vector<std::shared_ptr<const RequestTrace>> FlightRecorder::select(
    const Filter& filter) const {
  std::vector<std::shared_ptr<const RequestTrace>> out;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    // Pinned traces are strictly older-or-equal members of the stream;
    // concatenating (pinned, recent) and deduplicating by pointer keeps
    // finish order.
    out.reserve(pinned_.size() + recent_.size());
    for (const auto& t : pinned_) out.push_back(t);
    for (const auto& t : recent_) out.push_back(t);
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const auto& a, const auto& b) {
                     return a->start_us() < b->start_us();
                   });
  out.erase(std::unique(out.begin(), out.end()), out.end());

  std::vector<std::shared_ptr<const RequestTrace>> matched;
  for (const auto& t : out) {
    if (!filter.trace_id.empty() && t->trace_id() != filter.trace_id) continue;
    if (!filter.verb.empty() && t->verb() != filter.verb) continue;
    if (filter.min_ms >= 0.0 && t->duration_ms() < filter.min_ms) continue;
    matched.push_back(t);
  }
  if (filter.limit > 0 && matched.size() > filter.limit) {
    matched.erase(matched.begin(),
                  matched.end() - static_cast<std::ptrdiff_t>(filter.limit));
  }
  return matched;
}

std::string FlightRecorder::chrome_trace_json(const Filter& filter) const {
  const auto traces = select(filter);
  std::string out;
  out.reserve(traces.size() * 1024 + 64);
  out += "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  int pid = 0;
  for (const auto& t : traces) {
    ++pid;
    // Process-name metadata: one Perfetto track group per request.
    std::string args = "{\"name\":\"";
    json::append_escaped(args, t->verb());
    args += ' ';
    json::append_escaped(args, t->trace_id());
    args += "\"}";
    TraceRecorder::append_chrome_event(
        out, {.name = "process_name", .ph = "M", .pid = pid, .args = args});
    // request_info instant: identity, outcome, notes.
    args = "{\"trace_id\":\"";
    json::append_escaped(args, t->trace_id());
    args += "\",\"verb\":\"";
    json::append_escaped(args, t->verb());
    if (!t->parent_span().empty()) {
      args += "\",\"parent_span\":\"";
      json::append_escaped(args, t->parent_span());
    }
    args += "\",\"status\":\"";
    json::append_escaped(args, t->error_code().empty() ? "ok" : t->error_code());
    args += "\",\"duration_ms\":";
    args += json::format_number(t->duration_ms());
    args += ",\"sampled\":";
    args += t->sampled() ? "true" : "false";
    args += ",\"pinned\":";
    args += t->pinned() ? "true" : "false";
    if (const std::uint64_t dropped = t->dropped_events(); dropped > 0) {
      args += ",\"dropped_events\":" + std::to_string(dropped);
    }
    for (const auto& [key, value] : t->notes()) {
      args += ",\"";
      json::append_escaped(args, key);
      args += "\":\"";
      json::append_escaped(args, value);
      args += '"';
    }
    args += '}';
    TraceRecorder::append_chrome_event(out, {.name = "request_info",
                                             .cat = "request",
                                             .ph = "i",
                                             .ts = t->start_us(),
                                             .pid = pid,
                                             .scope = "p",
                                             .args = args});
    t->append_chrome_events(out, pid);
  }
  out += "]}";
  return out;
}

std::string FlightRecorder::dump_json() const {
  Filter everything;
  everything.limit = 0;
  return chrome_trace_json(everything);
}

std::size_t FlightRecorder::ring_size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return recent_.size();
}

std::size_t FlightRecorder::pinned_size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return pinned_.size();
}

std::uint64_t FlightRecorder::finished_total() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return finished_;
}

std::uint64_t FlightRecorder::evicted_total() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return evicted_;
}

// ---------------------------------------------------------------------------
// Fatal-signal post-mortem dump

namespace {

std::atomic<FlightRecorder*> g_dump_recorder{nullptr};
// Fixed-size path buffer: the handler must not touch std::string.
char g_dump_path[512] = {0};
constexpr int kFatalSignals[] = {SIGSEGV, SIGBUS, SIGFPE, SIGILL, SIGABRT};

void fatal_dump_handler(int signo) {
  FlightRecorder* recorder = g_dump_recorder.exchange(nullptr);
  if (recorder != nullptr && g_dump_path[0] != '\0') {
    // Best effort while dying: dump_json allocates, which is not
    // async-signal-safe; a second fault here just skips the artifact
    // (the default disposition below still runs).
    const int fd = ::open(g_dump_path, O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd >= 0) {
      const std::string payload = recorder->dump_json();
      std::size_t off = 0;
      while (off < payload.size()) {
        const ::ssize_t n =
            ::write(fd, payload.data() + off, payload.size() - off);
        if (n <= 0) break;
        off += static_cast<std::size_t>(n);
      }
      ::close(fd);
    }
  }
  ::signal(signo, SIG_DFL);
  ::raise(signo);
}

}  // namespace

void install_fatal_dump(FlightRecorder* recorder, const std::string& path) {
  if (recorder == nullptr || path.empty()) {
    g_dump_recorder.store(nullptr);
    g_dump_path[0] = '\0';
    for (const int signo : kFatalSignals) ::signal(signo, SIG_DFL);
    return;
  }
  const std::size_t n = std::min(path.size(), sizeof g_dump_path - 1);
  path.copy(g_dump_path, n);
  g_dump_path[n] = '\0';
  g_dump_recorder.store(recorder);
  for (const int signo : kFatalSignals) ::signal(signo, fatal_dump_handler);
}

}  // namespace mcr::obs
