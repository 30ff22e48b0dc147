// TraceRecorder — the standard in-memory TraceSink, plus the Chrome /
// Perfetto `trace_event` JSON exporter.
//
// Events are appended to one timestamped log under a mutex; tracing is
// opt-in and events are emitted at phase / outer-iteration granularity,
// so lock traffic is negligible against the work being traced. Each
// emitting thread is assigned a small dense id (0, 1, ...) in order of
// first emission — that id becomes the `tid` of the exported trace, so
// per-component spans from different pool workers land on different
// tracks in the Perfetto UI.
#ifndef MCR_OBS_TRACE_RECORDER_H
#define MCR_OBS_TRACE_RECORDER_H

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/obs.h"

namespace mcr::obs {

class TraceRecorder final : public TraceSink {
 public:
  enum class Phase : std::uint8_t { kBegin, kEnd, kInstant };

  struct Event {
    EventKind kind;
    Phase phase;
    std::string name;     // empty for kEnd (the matching kBegin names it)
    std::int64_t value;   // instants only
    std::uint32_t tid;    // dense per-recorder thread index
    double micros;        // since recorder construction (steady clock)
  };

  void begin_span(EventKind kind, std::string_view name) override;
  void end_span(EventKind kind) override;
  void instant(EventKind kind, std::string_view name,
               std::int64_t value) override;

  /// Snapshot of the event log, in emission order.
  [[nodiscard]] std::vector<Event> events() const;

  /// Number of distinct threads that have emitted so far.
  [[nodiscard]] std::size_t num_threads() const;

  /// Writes the log as Chrome trace_event JSON ({"traceEvents": [...]})
  /// — loadable in Perfetto (ui.perfetto.dev) and chrome://tracing.
  /// Spans become "B"/"E" pairs, instants become "i" events with the
  /// payload under args.value.
  void write_chrome_trace(std::ostream& os) const;
  [[nodiscard]] std::string chrome_trace_json() const;

  /// Total seconds spent inside spans, keyed by span kind name
  /// ("component", "merge", ...), summed over all threads (concurrent
  /// component spans add up, like CPU time). Unclosed spans are ignored.
  [[nodiscard]] std::map<std::string, double> span_totals() const;

 private:
  std::uint32_t thread_index_locked();
  [[nodiscard]] double micros_now() const {
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - t0_)
        .count();
  }

  mutable std::mutex mutex_;
  std::vector<Event> events_;
  std::map<std::thread::id, std::uint32_t> thread_ids_;
  std::chrono::steady_clock::time_point t0_ = std::chrono::steady_clock::now();
};

}  // namespace mcr::obs

#endif  // MCR_OBS_TRACE_RECORDER_H
