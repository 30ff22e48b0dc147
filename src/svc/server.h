// The mcr solve service: a resident server over the solver stack.
//
// Architecture (docs/SERVICE.md has the full protocol reference):
//
//   accept thread ──▶ one thread per connection ──▶ bounded job queue
//                      (parse frame, cache/single-     (capacity K,
//                       flight admission)               BUSY beyond)
//                                                          │
//                                                   dispatcher thread
//                                                   (drains the queue in
//                                                    batches; each job is
//                                                    solved on its own, a
//                                                    multi-job batch one
//                                                    job per pool worker)
//
// Request lifecycle for SOLVE: resolve the graph (content fingerprint
// via the GraphRegistry), consult the ResultCache (hit → answer from
// memory; identical request in flight → join it), otherwise become the
// flight leader, enter the bounded queue and wait on the flight like
// any joiner; the dispatcher completes the flight. Admission counts every
// admitted-but-unfinished solve: at capacity the request is rejected
// immediately with BUSY (explicit backpressure — the client decides
// whether to retry; nothing hangs, nothing is silently dropped). A
// deadline is a time point the job carries into SolveOptions::deadline:
// a job past it at dispatch is answered without solving, and the driver
// checks it at every phase boundary.
//
// Listeners, connection threads, frame errors, drain, the request
// envelope (payload and verb checks, trace ids, error answers), the STATS
// frame with its windowed per-verb view, and the request latency metrics
// belong to the svc::FrameServer underneath (frame_server.h); the Server
// is its verb handler and finish hook, feeding the flight recorder and
// the request log.
//
// Shutdown (stop_and_drain, wired to SIGTERM in mcr_serve): stop
// accepting, half-close existing connections so no new requests enter,
// finish every in-flight request, then retire the dispatcher and the
// stats pump. In-flight work is never abandoned.
#ifndef MCR_SVC_SERVER_H
#define MCR_SVC_SERVER_H

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "store/dataset_watcher.h"
#include "svc/cache.h"
#include "svc/frame_server.h"
#include "svc/graph_registry.h"
#include "svc/protocol.h"
#include "svc/request_log.h"

namespace mcr::json {
class Value;
}  // namespace mcr::json

namespace mcr::svc {

struct ServerOptions {
  /// Unix-domain listener path; empty disables. A stale socket file
  /// (path exists but nothing accepts) is replaced; a live one fails.
  std::string unix_socket_path;
  /// TCP listener: port number, 0 = ephemeral, -1 = disabled.
  int tcp_port = -1;
  /// Bind address for the TCP listener. Loopback by default; set
  /// "0.0.0.0" (or a specific interface address) so a worker can sit
  /// behind an mcr_router on another host. Numeric IPv4, or a name
  /// resolved via getaddrinfo.
  std::string tcp_bind_host = "127.0.0.1";
  /// SolveOptions::num_threads for dispatched solves (0 = hardware).
  int solve_threads = 0;
  /// SolveOptions::tile_arcs for dispatched solves: arc-tile granularity
  /// for intra-SCC parallelism (0 = untiled). Results are bit-identical
  /// for any value; only throughput and mcr_ops_tiles_* change.
  std::int32_t solve_tile_arcs = 0;
  /// Admission bound: max solve requests admitted and not yet finished
  /// (queued + executing). Beyond it, SOLVE is rejected with BUSY.
  std::size_t queue_capacity = 64;
  /// Max jobs one dispatcher batch pulls from the queue.
  std::size_t batch_max = 32;
  /// ResultCache entries (LRU).
  std::size_t cache_entries = 1024;
  /// GraphRegistry entries (LRU).
  std::size_t graph_entries = 64;
  /// Per-frame payload cap; larger frames are rejected and the
  /// connection closed.
  std::size_t max_frame_bytes = kDefaultMaxFrameBytes;
  /// Idle-connection reaper: connections with no completed request for
  /// this long are shut down (their blocked read returns EOF and the
  /// handler thread exits). 0 disables. Counted in
  /// mcr_idle_reaped_total.
  std::int64_t idle_timeout_ms = 0;
  /// Optional trace sink: per-request kRequest spans plus the usual
  /// driver/solver spans from dispatched solves.
  obs::TraceSink* trace = nullptr;
  /// Flight recorder tuning (ring/pinned capacities, slow-pin
  /// threshold, head-sampling rate). The recorder itself is always on:
  /// every request records its queue/dispatch/solve outline into a
  /// bounded per-request trace, retained per these options.
  obs::FlightRecorder::Options flight{};
  /// Per-request JSONL access log path; empty (the default) disables.
  std::string request_log_path;
  /// Sliding-window telemetry shape for the windowed
  /// mcr_request_seconds family: the nominal window the live view
  /// covers and the number of ring sub-windows it rotates through.
  /// Consumed by STATS {"window":true}, the stats pump, and
  /// `mcr_query top`.
  double stats_window_s = 60.0;
  std::size_t stats_window_slots = 6;
  /// Periodic snapshot pump: every `stats_interval_s` seconds (and once
  /// more at drain) one JSON line — windowed per-verb percentiles,
  /// saturation gauges, counter deltas since the previous line — is
  /// appended to `stats_out_path`. The pump runs only when the interval
  /// is positive AND the path is set.
  double stats_interval_s = 0.0;
  std::string stats_out_path;
  /// .mcrpack dataset to attach at start() (mmap'd zero-copy, see
  /// docs/STORAGE.md). Empty disables. The attached graph is registered
  /// in the GraphRegistry under its content fingerprint; RELOAD (and
  /// SIGHUP in mcr_serve) hot-swaps to a new generation without
  /// interrupting in-flight solves.
  std::string dataset_path;
};

class Server {
 public:
  explicit Server(ServerOptions options);
  /// Drains (as stop_and_drain) if still running.
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Attaches --dataset, opens --stats-out, binds the configured
  /// listeners and spawns the service threads. Throws (std::runtime_error,
  /// store::PackError) on any failure, leaving no listener fd or socket
  /// file behind; start() may then be called again.
  void start();

  /// Graceful shutdown: stop accepting, complete every in-flight
  /// request, join all threads, remove the unix socket file.
  /// Idempotent; safe to call from any thread except a handler's.
  void stop_and_drain();

  [[nodiscard]] bool running() const { return running_.load(); }

  /// Actual TCP port after start() (useful with tcp_port = 0).
  [[nodiscard]] int tcp_port() const { return frame_.tcp_port(); }

  /// Loads a DIMACS file into the registry (the --preload path in
  /// mcr_serve); returns the fingerprint. Call before or after start().
  std::string preload_dimacs_file(const std::string& path);

  /// Attaches (or hot-swaps to) the pack at `path`: validates it,
  /// publishes it as the next dataset generation, and registers its
  /// zero-copy graph in the registry. Throws store::PackError on a bad
  /// pack, in which case the current generation keeps serving. Thread-
  /// safe; this is what the RELOAD verb and SIGHUP call.
  std::shared_ptr<const store::Dataset> attach_dataset(const std::string& path);

  /// Re-attaches the currently attached dataset path (the SIGHUP
  /// no-argument reload). Throws std::runtime_error when no dataset has
  /// ever been attached.
  std::shared_ptr<const store::Dataset> reload_dataset();

  /// The currently published dataset generation; nullptr when the
  /// server runs without --dataset.
  [[nodiscard]] std::shared_ptr<const store::Dataset> dataset() const {
    return dataset_.current();
  }

  [[nodiscard]] obs::MetricsRegistry& metrics() { return metrics_; }
  [[nodiscard]] GraphRegistry& graphs() { return graphs_; }
  [[nodiscard]] ResultCache& cache() { return cache_; }
  /// The always-on per-request trace retainer (TRACE verb source,
  /// post-mortem dump payload).
  [[nodiscard]] obs::FlightRecorder& flight() { return flight_; }

  /// One snapshot line of the stats pump's JSONL time series (ts,
  /// uptime, windowed per-verb percentiles, gauges, counter deltas
  /// since the previous call). Stateful: each call advances the delta
  /// baseline. Exposed so tests can drive the pump synchronously.
  [[nodiscard]] std::string telemetry_snapshot_json();

 private:
  /// What one request accumulates for the flight recorder and the
  /// access log; the FrameServer::Request's context. The verb handlers
  /// fill `log`'s request-specific fields, finish_request the rest.
  struct RequestContext {
    std::shared_ptr<obs::RequestTrace> trace;
    RequestLog::Entry log;
  };
  /// One admitted SOLVE: queued, then owned by the dispatcher until it
  /// completes the cache flight for `key` (the leader waits there, not
  /// on the job).
  struct SolveJob {
    CacheKey key;
    std::shared_ptr<const Graph> graph;
    bool maximize = false;
    bool ratio = false;
    std::optional<std::chrono::steady_clock::time_point> deadline;
    /// Flight-recorder wiring: the requesting trace (always set by the
    /// leader) plus admission time, so the dispatcher can retro-date
    /// the queue-wait span when the job's solve starts.
    std::shared_ptr<obs::RequestTrace> trace;
    double enqueue_us = 0.0;
    double queue_wait_ms = -1.0;  // written by the dispatcher before completion

    /// The queue wait ends when the job's own solve starts (or it
    /// expires): sets queue_wait_ms and records the queue span.
    void end_queue_wait(double now_us) {
      queue_wait_ms = (now_us - enqueue_us) / 1000.0;
      if (trace != nullptr) {
        trace->record_span(obs::EventKind::kQueue, "queue", enqueue_us, now_us);
      }
    }
  };
  void dispatch_loop();
  void stats_loop();

  /// The verb switch under the FrameServer's envelope.
  [[nodiscard]] std::string handle_request(FrameServer::Request& request);
  [[nodiscard]] std::string handle_load(const json::Value& req,
                                        RequestContext& ctx);
  [[nodiscard]] std::string handle_solve(const json::Value& req,
                                         RequestContext& ctx);
  [[nodiscard]] std::string handle_solvers() const;
  [[nodiscard]] std::string handle_stats(const json::Value& req) const;
  [[nodiscard]] std::string handle_health();
  [[nodiscard]] std::string handle_trace(const json::Value& req) const;
  [[nodiscard]] std::string handle_reload(const json::Value& req,
                                          RequestContext& ctx);

  /// The FrameServer's finish hook: finishes the flight-recorder trace
  /// and writes the access-log line.
  void finish_request(const FrameServer::Request& request, std::string_view code,
                      double seconds);

  /// Parses the request's graph source ("fingerprint" | "dimacs" |
  /// "path" | "generator") and returns (resident graph, fingerprint).
  /// Throws std::runtime_error with a client-facing message.
  std::pair<std::shared_ptr<const Graph>, std::string> resolve_graph(
      const json::Value& req);

  void process_batch(const std::vector<std::shared_ptr<SolveJob>>& batch);
  /// Solves one job with `num_threads` driver threads, under its own
  /// deadline, sampled trace and timing, and completes it.
  void solve_single(SolveJob& job, int num_threads);
  /// Release the job's admission slot, then complete its cache flight.
  void complete_ok(const SolveJob& job, const CycleResult& result, double solve_ms);
  void complete_error(const SolveJob& job, const std::string& code,
                      const std::string& message);
  void release_slot();

  ServerOptions options_;
  obs::MetricsRegistry metrics_;
  GraphRegistry graphs_;
  store::DatasetWatcher dataset_;
  ResultCache cache_;
  obs::FlightRecorder flight_;
  std::unique_ptr<RequestLog> request_log_;

  std::atomic<bool> running_{false};
  /// Set (and never cleared) once stop_and_drain begins, *before*
  /// running_ flips — so observing running() == false implies the drain
  /// guard is already up. attach_dataset refuses new generations after
  /// this point: a SIGHUP/RELOAD racing the drain must not publish a
  /// dataset that nothing will ever serve (see test_svc
  /// ReloadDuringDrainIsRefused).
  std::atomic<bool> draining_{false};
  /// Steady-clock ns of the most recent solve completion (ok or error);
  /// -1 until the first one. HEALTH reports its age.
  std::atomic<std::int64_t> last_solve_steady_ns_{-1};

  std::thread dispatch_thread_;
  std::thread stats_thread_;

  std::mutex stats_mutex_;
  std::condition_variable stats_cv_;
  bool stopping_stats_ = false;
  std::ofstream stats_out_;
  /// Counter baseline for the pump's per-line deltas; touched only by
  /// telemetry_snapshot_json (pump thread, or a test driving it).
  std::map<std::string, std::uint64_t> stats_prev_counters_;

  std::mutex queue_mutex_;
  std::condition_variable queue_cv_;
  std::deque<std::shared_ptr<SolveJob>> queue_;
  std::size_t in_flight_ = 0;  // admitted, not yet fulfilled
  std::size_t queue_depth_highwater_ = 0;  // deepest queue since start
  bool stopping_ = false;          // refuse new admissions
  bool stopping_dispatch_ = false; // dispatcher exits once queue empty

  /// Last: its connection threads run handle_request, which uses every
  /// member above.
  FrameServer frame_;
};

}  // namespace mcr::svc

#endif  // MCR_SVC_SERVER_H
