// svc::FrameServer — the MCR1 frame-serving layer under both daemons.
// svc::Server (mcr_serve) and svc::Router (mcr_router) are request
// handlers on top of one instance each; the FrameServer owns the
// listeners, the guarded start, one thread per connection (each fd is
// closed only after its thread is joined, so no shutdown() can hit a
// recycled descriptor), the finished/idle connection reapers, replies
// to broken frames, the drain, and the per-request latency metrics.
//
// The handler maps one request payload to one response payload. It runs
// on the connection's thread, so it must be thread-safe.
#ifndef MCR_SVC_FRAME_SERVER_H
#define MCR_SVC_FRAME_SERVER_H

#include <array>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <list>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "obs/metrics.h"
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
  using Handler = std::function<std::string(const std::string& payload)>;

  /// `metrics` must outlive the FrameServer.
  FrameServer(FrameServerConfig config, obs::MetricsRegistry& metrics, Handler handler);
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

  /// Records one finished request: mcr_requests_total{verb} plus the
  /// cumulative (exemplared with `trace_id`) and windowed
  /// mcr_request_seconds families, aggregate and per verb. A verb
  /// outside kVerbs is recorded as verb="other". Each verb's instruments
  /// are resolved on its first request, so unseen verbs export nothing.
  void record_request(std::string_view verb, double seconds, std::string_view trace_id);

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
  Instruments& instruments(std::size_t slot);

  FrameServerConfig config_;
  obs::MetricsRegistry& metrics_;
  Handler handler_;

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
