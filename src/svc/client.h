// svc::Client — blocking client for the mcr solve service.
//
// One Client owns one connection and issues one request at a time
// (frame out, frame in). It is a thin transport: payloads are JSON
// strings built by the caller or by the convenience helpers below,
// responses come back parsed. Not thread-safe; use one Client per
// thread (connections are cheap, the server handles many).
//
// Every client-side MCR1 conversation goes through this class: the
// tools, and mcr_router's upstream connections to its workers, all dial
// a BackendAddress with connect() and exchange frames with request_raw().
//
// Resilience: request()/request_raw() are single-shot and throw
// TransportError when the conversation breaks. request_retry() layers a
// RetryPolicy on top — reconnect on transport failure, capped
// exponential backoff with decorrelated jitter on the errors errors.h
// calls retryable, all under one overall wall-clock budget
// (docs/ROBUSTNESS.md, "Who resends what").
#ifndef MCR_SVC_CLIENT_H
#define MCR_SVC_CLIENT_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "support/json.h"
#include "svc/errors.h"
#include "svc/protocol.h"

namespace mcr::svc {

/// One service endpoint. Specs are "unix:/path/to.sock", "host:port",
/// or a bare port (loopback). `name` is the canonical label used in
/// metrics and STATS ("unix:/path" or "host:port").
struct BackendAddress {
  enum class Kind { kUnix, kTcp };
  Kind kind = Kind::kUnix;
  std::string path;  // unix
  std::string host;  // tcp
  int port = 0;      // tcp
  std::string name;
};

/// Parses a --worker/--target/--listen spec; throws
/// std::invalid_argument on malformed input (empty, bad port, ...).
/// `allow_port_zero` admits port 0 for listener specs (ephemeral).
[[nodiscard]] BackendAddress parse_backend_address(const std::string& spec,
                                                   bool allow_port_zero = false);

/// Retry schedule for request_retry(). Backoff for attempt k is drawn
/// uniformly from [initial_backoff_ms, 3 * previous_sleep] (decorrelated
/// jitter), clamped to max_backoff_ms — a deterministic sequence for a
/// fixed jitter_seed, so tests and chaos runs reproduce bit-identically.
struct RetryPolicy {
  /// Total tries including the first. <= 1 disables retries.
  int max_attempts = 5;
  double initial_backoff_ms = 10.0;
  double max_backoff_ms = 2000.0;
  /// Overall wall-clock budget across all attempts and sleeps;
  /// <= 0 means unlimited. When the budget cannot cover the next
  /// backoff sleep the last error is rethrown instead.
  double budget_ms = 30'000.0;
  /// Seed for the jitter PRNG (per-client, advanced across calls).
  std::uint64_t jitter_seed = 0x9e3779b97f4a7c15ULL;
};

class Client {
 public:
  /// Dials `address`; throws TransportError when the connect fails.
  [[nodiscard]] static Client connect(const BackendAddress& address);
  [[nodiscard]] static Client connect_unix(const std::string& socket_path);
  /// Loopback TCP shorthand for connect_tcp("127.0.0.1", port).
  [[nodiscard]] static Client connect_tcp(int port);
  /// TCP to an arbitrary host (numeric address or name, resolved via
  /// getaddrinfo) — used to reach workers bound off-loopback.
  [[nodiscard]] static Client connect_tcp(const std::string& host, int port);

  Client(Client&& other) noexcept;
  Client& operator=(Client&& other) noexcept;
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;
  ~Client();

  /// One request round trip: frames `payload`, reads one response
  /// frame, parses it. Throws TransportError (a std::runtime_error) on
  /// transport failure or unparseable response. Server-side errors are
  /// returned as parsed payloads, not thrown.
  [[nodiscard]] json::Value request(std::string_view payload);
  /// Same, returning the raw response payload text; a response frame
  /// larger than `max_frame_bytes` is a TransportError.
  [[nodiscard]] std::string request_raw(std::string_view payload,
                                        std::size_t max_frame_bytes = kDefaultMaxFrameBytes);

  void set_retry_policy(const RetryPolicy& policy);
  [[nodiscard]] const RetryPolicy& retry_policy() const { return policy_; }

  /// Sticky trace id: spliced as "trace_id" into every subsequent
  /// request payload that does not already carry one, so the server
  /// echoes it back and retains the request's trace under it. Empty
  /// (the default) lets request_retry mint one per flight and leaves
  /// single-shot requests to the server's own generation.
  void set_trace_id(std::string trace_id) { trace_id_ = std::move(trace_id); }
  [[nodiscard]] const std::string& trace_id() const { return trace_id_; }

  /// request() under the retry policy. Transport failures reconnect to
  /// the original endpoint and retry; "status":"error" responses with a
  /// retryable code back off and retry; non-retryable service errors
  /// throw ServiceError immediately. When attempts or budget run out,
  /// the last typed error is thrown. On success returns the parsed
  /// "status":"ok" response.
  ///
  /// Trace context: unless the payload already carries a "trace_id",
  /// every attempt of one call shares a single trace id (the sticky one
  /// from set_trace_id, or a freshly minted one) and marks itself as
  /// "parent_span":"attempt/<k>" — the server then retains each attempt
  /// as a child trace of the same logical flight.
  [[nodiscard]] json::Value request_retry(std::string_view payload);
  /// request_retry returning the raw payload of the one attempt that
  /// succeeded, for callers that print its exact bytes.
  [[nodiscard]] std::string request_retry_raw(std::string_view payload);

  /// Convenience verbs.
  [[nodiscard]] bool ping();
  /// Returns the fingerprint of the loaded graph.
  [[nodiscard]] std::string load_dimacs_text(const std::string& dimacs);
  /// SOLVE by fingerprint; `deadline_ms <= 0` means no deadline.
  /// Returns the parsed response (status/ok/error fields included).
  [[nodiscard]] json::Value solve(const std::string& fingerprint,
                                  const std::string& objective = "min_mean",
                                  const std::string& algo = "",
                                  double deadline_ms = 0.0);
  /// SOLVE under the retry policy (see request_retry). Throws
  /// ServiceError / TransportError instead of returning error payloads.
  [[nodiscard]] json::Value solve_retry(const std::string& fingerprint,
                                        const std::string& objective = "min_mean",
                                        const std::string& algo = "",
                                        double deadline_ms = 0.0);
  /// Parsed STATS response. `window` additionally requests the
  /// time-windowed per-verb latency view ("window" key).
  [[nodiscard]] json::Value stats(bool window = false);
  /// Parsed HEALTH response (liveness, queue depth, last-solve age).
  [[nodiscard]] json::Value health();
  /// RELOAD: hot-swap the server's dataset to the pack at `path`, or
  /// re-attach the currently attached path when `path` is empty.
  /// Returns the parsed response (new fingerprint and generation on
  /// success, an error payload on rejection).
  [[nodiscard]] json::Value reload(const std::string& path = "");

  /// Raw transport access for protocol-robustness tests.
  void send_bytes(std::string_view bytes);
  /// Reads one response frame; throws TransportError on close or a
  /// framing error, with partial_response() set when any byte arrived.
  [[nodiscard]] std::string read_payload(std::size_t max_frame_bytes = kDefaultMaxFrameBytes);
  [[nodiscard]] int fd() const { return fd_; }

  /// Drops and re-establishes the connection to the original endpoint.
  /// Throws TransportError when the connect fails.
  void reconnect();

 private:
  Client(int fd, BackendAddress address) : fd_(fd), address_(std::move(address)) {}
  [[nodiscard]] std::string solve_payload(const std::string& fingerprint,
                                          const std::string& objective,
                                          const std::string& algo,
                                          double deadline_ms) const;

  int fd_ = -1;
  BackendAddress address_;
  RetryPolicy policy_;
  std::uint64_t jitter_state_ = 0;  // lazily seeded from policy_
  std::string trace_id_;            // sticky; empty = per-call/server minted
};

}  // namespace mcr::svc

#endif  // MCR_SVC_CLIENT_H
