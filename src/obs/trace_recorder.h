// TraceRecorder — the standard in-memory TraceSink, plus the Chrome /
// Perfetto `trace_event` JSON exporter.
//
// Events are appended to one timestamped log under a mutex; tracing is
// opt-in and events are emitted at phase / outer-iteration granularity,
// so lock traffic is negligible against the work being traced. Each
// emitting thread is assigned a small dense id (0, 1, ...) in order of
// first emission — that id becomes the `tid` of the exported trace, so
// per-component spans from different pool workers land on different
// tracks in the Perfetto UI. The flight recorder's per-request traces
// are TraceRecorders too, on the recorder's shared epoch and with an
// event cap.
#ifndef MCR_OBS_TRACE_RECORDER_H
#define MCR_OBS_TRACE_RECORDER_H

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <limits>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "obs/obs.h"

namespace mcr::obs {

class TraceRecorder : public TraceSink {
 public:
  enum class Phase : std::uint8_t { kBegin, kEnd, kInstant };

  struct Event {
    EventKind kind;
    Phase phase;
    std::string name;     // empty for kEnd (the matching kBegin names it)
    std::int64_t value;   // instants only
    std::uint32_t tid;    // dense per-recorder thread index
    double micros;        // since the recorder's epoch (steady clock)
  };

  /// An unbounded log timed from construction.
  TraceRecorder() = default;
  /// A log timed from `epoch` that keeps at most `max_events` events;
  /// emissions beyond the cap bump dropped_events() instead of
  /// allocating.
  TraceRecorder(std::chrono::steady_clock::time_point epoch, std::size_t max_events)
      : t0_(epoch), max_events_(max_events) {}

  void begin_span(EventKind kind, std::string_view name) override;
  void end_span(EventKind kind) override;
  void instant(EventKind kind, std::string_view name,
               std::int64_t value) override;

  /// Retro-dated span with explicit epoch-relative timestamps (µs), for
  /// intervals whose start predates the recording thread reaching the
  /// emission site — e.g. a queue wait recorded when the job is picked
  /// up, dated back to its admission. Both events or neither are kept.
  void record_span(EventKind kind, std::string_view name, double begin_us,
                   double end_us);

  /// Snapshot of the event log, in emission order.
  [[nodiscard]] std::vector<Event> events() const;
  /// Emissions refused by the event cap.
  [[nodiscard]] std::uint64_t dropped_events() const;

  /// Number of distinct threads that have emitted so far.
  [[nodiscard]] std::size_t num_threads() const;

  /// Writes the log as Chrome trace_event JSON ({"traceEvents": [...]})
  /// — loadable in Perfetto (ui.perfetto.dev) and chrome://tracing.
  /// Spans become "B"/"E" pairs, instants become "i" events with the
  /// payload under args.value.
  void write_chrome_trace(std::ostream& os) const;
  [[nodiscard]] std::string chrome_trace_json() const;

  /// The events of write_chrome_trace as process `pid`, appended to a
  /// traceEvents array under construction.
  void append_chrome_events(std::string& out, int pid) const;

  /// One Chrome trace_event object.
  struct ChromeEvent {
    std::string_view name{};
    std::string_view cat{};      // left out when empty
    std::string_view ph{};
    std::optional<double> ts{};  // left out for metadata records
    int pid = 1;
    std::uint32_t tid = 0;
    std::string_view scope{};    // instant scope ("t", "p"); left out when empty
    std::string_view args{};     // serialized JSON object; left out when empty
  };
  /// Appends `e` to a traceEvents array under construction, preceded by
  /// a comma unless `out` ends in '[':
  ///   {"name":..[,"cat":..],"ph":..[,"ts":..],"pid":..,"tid":..[,"s":..][,"args":..]}
  static void append_chrome_event(std::string& out, const ChromeEvent& e);

  /// Total seconds spent inside spans, keyed by span kind name
  /// ("component", "merge", ...), summed over all threads (concurrent
  /// component spans add up, like CPU time). Unclosed spans are ignored.
  [[nodiscard]] std::map<std::string, double> span_totals() const;

 private:
  void push(Event&& e);
  std::uint32_t thread_index_locked();
  [[nodiscard]] double micros_now() const {
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - t0_)
        .count();
  }

  mutable std::mutex mutex_;
  std::vector<Event> events_;
  std::map<std::thread::id, std::uint32_t> thread_ids_;
  std::uint64_t dropped_ = 0;
  std::chrono::steady_clock::time_point t0_ = std::chrono::steady_clock::now();
  std::size_t max_events_ = std::numeric_limits<std::size_t>::max();
};

}  // namespace mcr::obs

#endif  // MCR_OBS_TRACE_RECORDER_H
