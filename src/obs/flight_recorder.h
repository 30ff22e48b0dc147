// FlightRecorder — an always-on, bounded, per-request trace retainer.
//
// Where TraceRecorder keeps one process-wide, grow-forever event log
// (fine for a single traced solve, wrong for a daemon), the flight
// recorder keeps one small trace *per request*, retains the N most
// recent of them in a ring, and additionally *pins* traces for slow and
// errored requests so the interesting ones survive a flood of fast
// successes. Memory is bounded three ways: the recent ring and the
// pinned set have fixed capacities (oldest-first eviction), and each
// trace caps its own event count (overflow is counted, not stored).
//
// Request-level spans (request / queue / dispatch / solve) are recorded
// for every request; full solver detail (per-component spans, iteration
// instants) is gated by probabilistic head sampling — the sampling
// decision is a pure function of the trace id, so one request's fate is
// reproducible and joiners of the same flight agree.
//
// Retained traces export as Chrome trace_event JSON (one pid per
// request trace), loadable in Perfetto — served live by the TRACE verb
// and dumped post-mortem on a fatal signal (see install_fatal_dump).
#ifndef MCR_OBS_FLIGHT_RECORDER_H
#define MCR_OBS_FLIGHT_RECORDER_H

#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/obs.h"
#include "obs/trace_recorder.h"

namespace mcr::obs {

class FlightRecorder;

/// One request's trace: a TraceRecorder on the flight recorder's epoch,
/// capped at kMaxEvents, plus the request's identity, outcome and
/// key/value notes. Being a TraceSink, it can be installed (SinkScope /
/// SolveOptions::trace) on any thread doing work for the request.
class RequestTrace final : public TraceRecorder {
 public:
  /// Hard cap on events retained per trace; emissions beyond it bump
  /// dropped_events() instead of allocating.
  static constexpr std::size_t kMaxEvents = 4096;

  /// Attaches a key/value annotation (fingerprint, algo, cache status,
  /// ...); exported under the trace's request_info args.
  void note(std::string_view key, std::string_view value);

  [[nodiscard]] const std::string& trace_id() const { return trace_id_; }
  [[nodiscard]] const std::string& verb() const { return verb_; }
  [[nodiscard]] const std::string& parent_span() const { return parent_span_; }
  /// True when this request drew full-detail solver spans.
  [[nodiscard]] bool sampled() const { return sampled_; }
  /// Valid after finish(): wall duration, error code ("" = ok), pin.
  [[nodiscard]] double duration_ms() const { return duration_ms_; }
  [[nodiscard]] const std::string& error_code() const { return error_code_; }
  [[nodiscard]] bool pinned() const { return pinned_; }
  /// Start time in recorder-epoch microseconds.
  [[nodiscard]] double start_us() const { return start_us_; }

  [[nodiscard]] std::vector<std::pair<std::string, std::string>> notes() const;

 private:
  friend class FlightRecorder;
  RequestTrace(std::string trace_id, std::string verb, std::string parent_span,
               bool sampled, double start_us,
               std::chrono::steady_clock::time_point epoch)
      : TraceRecorder(epoch, kMaxEvents),
        trace_id_(std::move(trace_id)),
        verb_(std::move(verb)),
        parent_span_(std::move(parent_span)),
        sampled_(sampled),
        start_us_(start_us) {}

  const std::string trace_id_;
  const std::string verb_;
  const std::string parent_span_;
  const bool sampled_;
  const double start_us_;

  // Set once by FlightRecorder::finish (before publication to the ring).
  double duration_ms_ = 0.0;
  std::string error_code_;
  bool pinned_ = false;

  mutable std::mutex notes_mutex_;
  std::vector<std::pair<std::string, std::string>> notes_;
};

class FlightRecorder {
 public:
  struct Options {
    /// Recent ring: the N most recently finished request traces.
    std::size_t capacity = 256;
    /// Pinned set: slow / errored traces retained past ring eviction.
    std::size_t pinned_capacity = 64;
    /// Requests taking at least this long are pinned (0 pins every
    /// request; < 0 disables slow-pinning). Errors always pin.
    double slow_ms = 250.0;
    /// Head-sampling probability for full-detail solver spans, in
    /// [0, 1]. The decision is a pure function of (trace_id, salt).
    double sample_rate = 0.0;
    std::uint64_t sample_salt = 0x9e3779b97f4a7c15ULL;
  };

  explicit FlightRecorder(Options options);
  FlightRecorder() : FlightRecorder(Options()) {}

  /// Opens a trace for one request. The returned handle is live
  /// immediately (events may be emitted from any thread); it enters the
  /// ring only at finish(). `sampled()` on the handle tells the caller
  /// whether to wire full solver detail into it.
  [[nodiscard]] std::shared_ptr<RequestTrace> begin(std::string trace_id,
                                                    std::string verb,
                                                    std::string parent_span);

  /// Completes a trace: stamps outcome, decides pinning, inserts it
  /// into the recent ring (evicting the oldest beyond capacity) and —
  /// when pinned — into the pinned set (same policy). Call exactly once
  /// per begin().
  void finish(const std::shared_ptr<RequestTrace>& trace,
              std::string_view error_code, double duration_ms);

  /// Microseconds since recorder construction — the epoch every
  /// retained event timestamp shares.
  [[nodiscard]] double now_us() const;

  /// Pure head-sampling predicate (exposed for tests).
  [[nodiscard]] bool would_sample(std::string_view trace_id) const;

  struct Filter {
    std::string trace_id;  // exact match; empty = any
    std::string verb;      // exact match; empty = any
    double min_ms = -1.0;  // minimum duration; < 0 = any
    std::size_t limit = 32;  // newest-first cap; 0 = unlimited
  };

  /// Matching traces, deduplicated across ring and pinned set, oldest
  /// first (trimmed to the newest `limit` when set).
  [[nodiscard]] std::vector<std::shared_ptr<const RequestTrace>> select(
      const Filter& filter) const;

  /// Chrome trace_event JSON of the selected traces: one pid per trace
  /// with a process_name metadata record, plus a request_info instant
  /// carrying identity/outcome/notes. Loadable in Perfetto.
  [[nodiscard]] std::string chrome_trace_json(const Filter& filter) const;

  /// Everything currently retained (ring + pinned, no limit) as Chrome
  /// JSON — the post-mortem dump payload.
  [[nodiscard]] std::string dump_json() const;

  [[nodiscard]] std::size_t ring_size() const;
  [[nodiscard]] std::size_t pinned_size() const;
  /// Total traces finished / evicted from the recent ring since birth.
  [[nodiscard]] std::uint64_t finished_total() const;
  [[nodiscard]] std::uint64_t evicted_total() const;

  [[nodiscard]] const Options& options() const { return options_; }

 private:
  Options options_;
  std::chrono::steady_clock::time_point epoch_ =
      std::chrono::steady_clock::now();

  mutable std::mutex mutex_;
  std::deque<std::shared_ptr<const RequestTrace>> recent_;
  std::deque<std::shared_ptr<const RequestTrace>> pinned_;
  std::uint64_t finished_ = 0;
  std::uint64_t evicted_ = 0;
};

/// Installs a best-effort fatal-signal handler (SIGSEGV, SIGBUS,
/// SIGFPE, SIGILL, SIGABRT) that writes `recorder->dump_json()` to
/// `path` and re-raises with the default disposition, so the crash
/// still produces its normal exit status / core. One recorder per
/// process; passing nullptr uninstalls. The handler allocates while
/// dying (not strictly async-signal-safe) — acceptable for a crash
/// artifact, never used on healthy paths.
void install_fatal_dump(FlightRecorder* recorder, const std::string& path);

}  // namespace mcr::obs

#endif  // MCR_OBS_FLIGHT_RECORDER_H
