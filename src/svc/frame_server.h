// svc::FrameServer — the MCR1 frame-serving layer under both daemons.
// svc::Server (mcr_serve) and svc::Router (mcr_router) are verb handlers
// on top of one instance each; the FrameServer owns the listeners, the
// guarded start, one thread per connection (each fd is closed only after
// its thread is joined, so no shutdown() can hit a recycled descriptor),
// the finished/idle connection reapers, replies to broken frames, the
// drain, the request envelope, the STATS frame and the per-request
// latency metrics with their windowed per-verb view.
//
// The request envelope is everything a daemon does to a request apart
// from its verb: parse the payload (a JSON object whose verb is in
// kVerbs), check the client's trace id or mint one, run the daemon's
// verb handler, map what it throws to a typed error answer, put the
// trace id first in the answer, hand the outcome to the daemon's finish
// hook, and record the request metrics. The handler runs on the
// connection's thread, so it must be thread-safe.
#ifndef MCR_SVC_FRAME_SERVER_H
#define MCR_SVC_FRAME_SERVER_H

#include <any>
#include <array>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <list>
#include <mutex>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "support/json.h"
#include "svc/protocol.h"

namespace mcr::svc {

/// Request-latency bucket bounds: log-spaced, three per decade, 10µs
/// to 10s, so sub-millisecond cached replays and multi-second cold
/// solves resolve into distinct buckets instead of collapsing into the
/// coarse default grid.
[[nodiscard]] const std::vector<double>& request_seconds_bounds();

/// `q`-th percentile of a windowed snapshot in milliseconds, or "null"
/// when the window holds no observations (never NaN on the wire).
[[nodiscard]] std::string window_quantile_ms_json(
    const obs::SlidingWindowHistogram::Snapshot& s, double q);

/// A client-facing request failure carrying its protocol error code; the
/// envelope answers it as {"status":"error","code":..,"message":..}.
struct RequestError : std::runtime_error {
  RequestError(std::string code_, const std::string& message)
      : std::runtime_error(message), code(std::move(code_)) {}
  std::string code;
};

/// Filled from ServerOptions / RouterOptions fields of the same names.
struct FrameServerConfig {
  std::string unix_socket_path;  // empty disables
  int tcp_port = -1;             // 0 = ephemeral, -1 = disabled
  std::string tcp_bind_host = "127.0.0.1";
  std::size_t max_frame_bytes = kDefaultMaxFrameBytes;
  std::int64_t idle_timeout_ms = 0;  // 0 disables the idle reaper
  double stats_window_s = 60.0;      // windowed mcr_request_seconds shape
  std::size_t stats_window_slots = 6;
  /// Names the daemon in messages ("frame exceeds the server's size limit").
  std::string role = "server";
  /// Message of the INTERNAL answer when the handler throws.
  std::string internal_error_message = "internal error handling request";
};

class FrameServer {
 public:
  /// One request as the envelope hands it to the daemon.
  struct Request {
    std::string_view payload{};  // the frame's bytes, as received
    std::chrono::steady_clock::time_point arrival{};
    json::Value body{};          // the parsed payload, a JSON object
    /// The client's verb; one of kVerbs whenever the handler runs.
    std::string verb{};
    std::string trace_id{};        // the client's valid id, or a minted one
    bool client_trace_id = false;  // whether trace_id came from the client
    std::string parent_span{};     // the client's, cut to kMaxTraceIdBytes
    /// The daemon's own per-request record, set by its handler and still
    /// there for the finish hook when the handler threw.
    std::any context{};
  };
  /// Answers one request that passed the envelope's checks. Throws
  /// RequestError for a typed error answer; std::bad_alloc becomes
  /// INTERNAL and any other exception BAD_REQUEST.
  using Handler = std::function<std::string(Request& request)>;
  /// Runs once per request when its answer is final — also for a request
  /// the envelope refused before the handler ran — with the code of the
  /// error answer the envelope made ("" when the handler returned) and
  /// the seconds since arrival.
  using Finish =
      std::function<void(const Request& request, std::string_view error_code, double seconds)>;

  /// `metrics` must outlive the FrameServer.
  FrameServer(FrameServerConfig config, obs::MetricsRegistry& metrics, Handler handler,
              Finish finish = {});
  ~FrameServer();  // drain()

  FrameServer(const FrameServer&) = delete;
  FrameServer& operator=(const FrameServer&) = delete;

  /// Binds the listeners (a stale unix socket file is replaced, a live
  /// one refused) and starts accepting. Throws std::runtime_error when
  /// no listener is configured or a bind/listen fails — leaving no fd
  /// open and no socket file on disk, so start() may be called again.
  void start();

  /// Stops accepting, half-closes every connection (pending reads see
  /// EOF, in-flight responses still go out), joins the connection
  /// threads, closes the listeners and unlinks the socket file. No-op
  /// when not serving. Never call it from a handler.
  void drain();

  /// Actual TCP port after start() (useful with tcp_port = 0).
  [[nodiscard]] int tcp_port() const { return bound_tcp_port_; }
  /// Seconds since the last successful start().
  [[nodiscard]] double uptime_seconds() const;
  /// Open client connections.
  [[nodiscard]] std::size_t connections();

  /// The STATS answer: status, uptime_seconds, build, then the daemon's
  /// own `fields` (`,"key":value` pairs, may be empty), then window when
  /// the request asks {"window":true}, then metrics, and prometheus last
  /// — clients cut its escaped text out by suffix.
  [[nodiscard]] std::string stats_json(const json::Value& request,
                                       std::string_view fields) const;

  /// `{"window_seconds":..,"covered_seconds":..,"verbs":{"(all)":{..},
  /// "SOLVE":{..}}}` — count, rps and percentiles per verb over the
  /// windowed mcr_request_seconds instruments, for STATS {"window":true},
  /// the stats pump and `mcr_query top`. Verbs with no request yet are
  /// left out.
  [[nodiscard]] std::string window_json() const;

 private:
  struct Connection {
    int fd = -1;
    std::thread thread;
    std::atomic<bool> done{false};
    std::atomic<std::int64_t> last_activity_ms{0};  // steady clock
    bool idle_reaped = false;  // accept thread only: reap (and count) once
  };
  /// One verb label's instruments; `requests` stays null for the
  /// aggregate (there is no unlabeled mcr_requests_total).
  struct Instruments {
    std::once_flag once;
    /// Set after the pointers below; readers that do not resolve the
    /// instruments themselves (window_json) check it first.
    std::atomic<bool> resolved{false};
    obs::Counter* requests = nullptr;
    obs::Histogram* seconds = nullptr;
    obs::SlidingWindowHistogram* window = nullptr;
  };
  /// instruments_ slots: one per kVerbs entry, then these two.
  static constexpr std::size_t kOtherSlot = kVerbs.size();
  static constexpr std::size_t kAggregateSlot = kVerbs.size() + 1;

  void listen_unix();
  void listen_tcp();
  void close_listeners();
  void accept_loop();
  void reap_connections();
  void serve_connection(Connection& conn);
  /// The request envelope: one payload in, one answer out.
  std::string answer(const std::string& payload);
  /// mcr_requests_total{verb} plus the cumulative (exemplared with
  /// `trace_id`) and windowed mcr_request_seconds families, aggregate and
  /// per verb. A verb outside kVerbs is recorded as verb="other". Each
  /// verb's instruments are resolved on its first request, so unseen
  /// verbs export nothing.
  void record_request(std::string_view verb, double seconds, std::string_view trace_id);
  Instruments& instruments(std::size_t slot);

  FrameServerConfig config_;
  obs::MetricsRegistry& metrics_;
  Handler handler_;
  Finish finish_;

  int unix_fd_ = -1;
  bool unix_bound_ = false;  // our socket file exists on disk
  int tcp_fd_ = -1;
  int bound_tcp_port_ = -1;
  int wake_pipe_[2] = {-1, -1};
  std::chrono::steady_clock::time_point started_at_{};

  std::mutex conns_mutex_;
  std::list<Connection> conns_;

  std::array<Instruments, kVerbs.size() + 2> instruments_;
  std::thread accept_thread_;  // last: it uses every member above
};

}  // namespace mcr::svc

#endif  // MCR_SVC_FRAME_SERVER_H
