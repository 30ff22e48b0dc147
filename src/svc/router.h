// svc::Router — fault-tolerant front-end for a fleet of mcr_serve
// workers, speaking the MCR1 frame protocol on both sides.
//
// Topology: clients connect to the router exactly as they would to a
// single mcr_serve; the router consistent-hash-shards each request by
// its graph fingerprint across a static worker list, with replication
// factor R so hot graphs are resident on R workers. Requests that
// carry no fingerprint (PING, SOLVERS, TRACE) rotate round-robin;
// STATS and HEALTH are answered by the router itself (STATS can fan
// out, see below).
//
// Routing key:
//  - SOLVE {"fingerprint": ...}   -> the declared fingerprint
//  - SOLVE/LOAD {"generator":...} -> canonical form of the spec (same
//    spec => same key => same replica set, so the worker-side result
//    cache and single-flight machinery keep working across the tier)
//  - LOAD {"dimacs"/"path": ...}  -> the graph's content fingerprint
//    (the router parses the source, so LOAD and the SOLVEs that follow
//    it agree on the replica set)
// The key picks R consecutive distinct workers clockwise on a hashed
// ring with virtual nodes; LOAD fans out to all R replicas so a later
// fingerprint-addressed SOLVE can be served by any of them.
//
// Robustness model (docs/FLEET.md):
//  - per-backend circuit breaker (closed / open / half-open) fed by
//    passive failure detection with jittered exponential cooldown. Only
//    transport failures count against a backend; every answered frame —
//    INTERNAL and SHUTTING_DOWN included — is a breaker success, and
//    SHUTTING_DOWN additionally marks the backend draining;
//  - an active prober that HEALTH-checks backends on a jittered
//    interval, closing breakers when a worker comes back and marking
//    draining workers (they finish in-flight requests, get no new
//    ones);
//  - failover: idempotent verbs retry on the next replica when the
//    worker's answer passes ServiceError::may_fail_over (errors.h) or
//    nothing came back, within a retry budget carved from the request
//    deadline. A response cut off after partial bytes is NEVER hedged
//    (the worker may have acted); the client gets UPSTREAM_UNAVAILABLE
//    and decides. The rules are tabulated in docs/ROBUSTNESS.md.
//
// Upstream connections are svc::Clients: dialed with Client::connect,
// one request_raw per attempt, pooled per backend. Every forwarded
// request — failover, LOAD/RELOAD/STATS fan-out — goes through one
// attempt(), which keeps the breaker, per-backend instruments and
// passive drain detection; only the prober dials on its own.
//
// Listeners, client connections, the request envelope (payload and verb
// checks, trace ids, error answers), the STATS frame with its windowed
// per-verb view, and the request latency metrics belong to the
// svc::FrameServer underneath (frame_server.h), the same code mcr_serve
// runs; the Router is its verb handler.
//
// Trace context: the envelope checks the client's trace_id or mints
// one; the router forwards it and splices
// "parent_span":"router/attempt/<k>" so the worker's span is parented
// by the router's — one id follows the request through both tiers.
#ifndef MCR_SVC_ROUTER_H
#define MCR_SVC_ROUTER_H

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "svc/client.h"
#include "svc/frame_server.h"
#include "svc/protocol.h"

namespace mcr::json {
class Value;
}  // namespace mcr::json

namespace mcr::svc {

/// Per-backend circuit breaker: pure, clock-passed state machine so
/// tests drive it deterministically. Not thread-safe — the Router
/// guards each instance with its backend's mutex.
///
///   closed    -- failures < threshold --> closed (count them)
///   closed    -- failures = threshold --> open   (cooldown starts)
///   open      -- admit() before cooldown expiry --> refused
///   open      -- admit() after  cooldown expiry --> half-open (one trial)
///   half-open -- trial succeeds --> closed (counters reset)
///   half-open -- trial fails    --> open (cooldown doubles, jittered)
class CircuitBreaker {
 public:
  enum class State { kClosed, kOpen, kHalfOpen };

  struct Options {
    /// Consecutive failures that trip a closed breaker.
    int failure_threshold = 3;
    /// Cooldown after the first trip; doubles per reopen, jittered
    /// uniformly in [0.5, 1.0) of the nominal value, capped below.
    double cooldown_initial_ms = 250.0;
    double cooldown_max_ms = 5000.0;
    std::uint64_t jitter_seed = 0x6d63'725f'7274'7231ULL;
  };

  CircuitBreaker() : CircuitBreaker(Options{}) {}
  explicit CircuitBreaker(Options options);

  /// May this backend take a request now? An expired-cooldown open
  /// breaker transitions to half-open and admits exactly one trial;
  /// further admits are refused until that trial reports.
  [[nodiscard]] bool admit(std::chrono::steady_clock::time_point now);
  void on_success();
  void on_failure(std::chrono::steady_clock::time_point now);

  [[nodiscard]] State state() const { return state_; }
  [[nodiscard]] int consecutive_failures() const { return consecutive_failures_; }
  /// Nominal (pre-jitter) cooldown of the current open period, ms.
  [[nodiscard]] double current_cooldown_ms() const { return cooldown_ms_; }
  [[nodiscard]] std::chrono::steady_clock::time_point open_until() const {
    return open_until_;
  }

 private:
  void open(std::chrono::steady_clock::time_point now);

  Options options_;
  State state_ = State::kClosed;
  int consecutive_failures_ = 0;
  int reopen_count_ = 0;
  bool trial_in_flight_ = false;
  double cooldown_ms_ = 0.0;
  std::chrono::steady_clock::time_point open_until_{};
  std::uint64_t jitter_state_ = 0;
};

struct RouterOptions {
  /// Listeners, same semantics as ServerOptions.
  std::string unix_socket_path;
  int tcp_port = -1;
  std::string tcp_bind_host = "127.0.0.1";
  /// The static fleet. At least one required.
  std::vector<BackendAddress> workers;
  /// Replication factor: each routing key maps to min(replicas,
  /// workers) distinct backends.
  std::size_t replicas = 2;
  /// Virtual nodes per worker on the hash ring.
  std::size_t virtual_nodes = 64;
  /// Failover budget: max forward attempts per request across
  /// replicas (>= 1). The deadline, when present, caps it further.
  int max_attempts = 3;
  /// Active HEALTH probe period (jittered +/-25%); <= 0 disables the
  /// prober thread (tests drive probe_now() by hand).
  double probe_interval_ms = 500.0;
  /// Idle upstream connections kept per backend.
  std::size_t pool_capacity = 8;
  std::size_t max_frame_bytes = kDefaultMaxFrameBytes;
  CircuitBreaker::Options breaker{};
  /// Windowed per-backend latency view shape.
  double stats_window_s = 60.0;
  std::size_t stats_window_slots = 6;
};

class Router {
 public:
  explicit Router(RouterOptions options);
  ~Router();

  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  /// Binds listeners, starts the accept loop and (when enabled) the
  /// prober. Throws std::runtime_error on bind failure / no workers.
  void start();
  /// Stop accepting, finish in-flight client requests, join threads.
  /// Idempotent.
  void stop_and_drain();
  [[nodiscard]] bool running() const { return running_.load(); }
  /// Actual TCP port after start() (with tcp_port = 0).
  [[nodiscard]] int tcp_port() const { return frame_.tcp_port(); }

  [[nodiscard]] obs::MetricsRegistry& metrics() { return metrics_; }

  /// Point-in-time view of one backend's health machinery.
  struct BackendSnapshot {
    std::string name;
    bool up = false;
    bool draining = false;
    CircuitBreaker::State breaker = CircuitBreaker::State::kClosed;
    std::uint64_t requests = 0;
    std::uint64_t failures = 0;
  };
  [[nodiscard]] std::vector<BackendSnapshot> backend_snapshots();

  /// One synchronous probe round over all backends (the prober thread
  /// calls this on its jittered interval; tests call it directly).
  void probe_now();

  /// Replica set (backend indices, primary first) for a routing key —
  /// exposed for ring property tests.
  [[nodiscard]] std::vector<std::size_t> replica_indices(std::string_view key) const;
  /// Routing key for a parsed request payload; "" = no affinity. An
  /// inline DIMACS header may declare at most max_frame_bytes / 8 nodes,
  /// the bound a worker holds it to.
  [[nodiscard]] static std::string routing_key_for(
      const json::Value& request, std::size_t max_frame_bytes = kDefaultMaxFrameBytes);

 private:
  struct Backend {
    BackendAddress address;
    std::mutex mutex;
    CircuitBreaker breaker;
    bool up = true;        // optimistic until proven otherwise
    bool draining = false;
    std::vector<std::unique_ptr<Client>> idle;  // connection pool
    obs::Counter* requests_total = nullptr;
    obs::Counter* failures_total = nullptr;
    obs::Gauge* up_gauge = nullptr;
    obs::Gauge* draining_gauge = nullptr;
    obs::Gauge* breaker_gauge = nullptr;
    obs::SlidingWindowHistogram* latency_window = nullptr;
  };

  /// Outcome of one upstream attempt.
  struct Forward {
    enum class Status {
      kOk,         // one whole response frame in `response`
      kNoBytes,    // transport failed before any response byte (hedgeable)
      kPartial,    // response cut off mid-frame (NEVER hedged)
      kRefused,    // not sent: breaker open, or the backend is draining
    };
    Status status = Status::kNoBytes;
    std::string response{};
    std::string code{};  // attempt(): the answer's error code, "" when ok
  };

  /// The verb switch under the FrameServer's envelope.
  [[nodiscard]] std::string handle_request(FrameServer::Request& request);
  [[nodiscard]] std::string forward_with_failover(
      const json::Value& request, const std::string& verb,
      const std::string& payload, std::chrono::steady_clock::time_point arrival);
  [[nodiscard]] std::string handle_load(const json::Value& request,
                                        const std::string& payload);
  [[nodiscard]] std::string handle_reload_fanout(const std::string& payload);
  [[nodiscard]] std::string handle_stats(const json::Value& request);
  [[nodiscard]] std::string handle_health();

  /// One upstream attempt with all its bookkeeping: breaker admit
  /// (kRefused when refused), requests_total, forward_once, the latency
  /// window, breaker success or failure, the partial-response counter,
  /// and marking the backend draining on a SHUTTING_DOWN answer.
  [[nodiscard]] Forward attempt(Backend& b, std::string_view payload, bool ignore_draining);
  /// One round trip against a backend. A pooled connection that fails
  /// before any response byte is assumed stale and the request is
  /// retried once on a freshly dialed connection; only a fresh-dial
  /// failure is reported (a worker restart must not trip the breaker
  /// through leftover pool entries).
  [[nodiscard]] Forward forward_once(Backend& b, std::string_view payload);
  /// One Client exchange on an established connection, its response
  /// capped at max_frame_bytes; the connection is pooled again on
  /// success, dropped otherwise.
  [[nodiscard]] Forward roundtrip(Backend& b, std::unique_ptr<Client> client,
                                  std::string_view payload);

  /// Breaker/gauge bookkeeping around one attempt.
  [[nodiscard]] bool backend_admit(Backend& b, bool ignore_draining);
  void record_success(Backend& b);
  void record_failure(Backend& b);
  void set_draining(Backend& b, bool draining);
  void probe_backend(Backend& b);

  /// Candidate backends for a request, in attempt order.
  [[nodiscard]] std::vector<std::size_t> candidate_order(const json::Value& request,
                                                         const std::string& verb);
  void prober_loop();

  RouterOptions options_;
  obs::MetricsRegistry metrics_;
  std::vector<std::unique_ptr<Backend>> backends_;
  /// Hash ring: (point, backend index), sorted by point.
  std::vector<std::pair<std::uint64_t, std::size_t>> ring_;

  std::atomic<bool> running_{false};
  std::atomic<std::uint64_t> round_robin_{0};  // keyless verbs
  std::atomic<std::uint64_t> replica_spread_{0};  // generator SOLVE spread

  std::thread prober_thread_;
  std::mutex prober_mutex_;
  std::condition_variable prober_cv_;
  bool stopping_prober_ = false;
  std::uint64_t prober_jitter_state_ = 0x726f'7574'6572'5f70ULL;

  /// Last: its connection threads run handle_request, which uses every
  /// member above.
  FrameServer frame_;
};

}  // namespace mcr::svc

#endif  // MCR_SVC_ROUTER_H
