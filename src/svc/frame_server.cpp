#include "svc/frame_server.h"

#include <arpa/inet.h>
#include <netdb.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <new>
#include <stdexcept>
#include <utility>

#include "fault/fault.h"
#include "obs/build_info.h"

namespace mcr::svc {

namespace {

[[noreturn]] void throw_errno(const std::string& what) {
  throw std::runtime_error(what + ": " + std::strerror(errno));
}

std::int64_t steady_now_ms() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

const std::vector<double>& request_seconds_bounds() {
  static const std::vector<double> bounds = [] {
    std::vector<double> b;
    for (double decade = 1e-5; decade < 10.0; decade *= 10.0) {
      b.push_back(decade);
      b.push_back(decade * 2.1544346900318837);  // 10^(1/3)
      b.push_back(decade * 4.6415888336127790);  // 10^(2/3)
    }
    b.push_back(10.0);
    return b;
  }();
  return bounds;
}

std::string window_quantile_ms_json(const obs::SlidingWindowHistogram::Snapshot& s,
                                    double q) {
  const auto v = obs::histogram_quantile(
      s.bounds, obs::SlidingWindowHistogram::cumulative_counts(s), s.count, q);
  return v.has_value() ? json::format_number(*v * 1000.0) : "null";
}

FrameServer::FrameServer(FrameServerConfig config, obs::MetricsRegistry& metrics,
                         Handler handler, Finish finish)
    : config_(std::move(config)),
      metrics_(metrics),
      handler_(std::move(handler)),
      finish_(std::move(finish)) {
  // Provenance in Prometheus form, beside STATS' "build" object.
  obs::export_build_info(metrics_);
}

FrameServer::~FrameServer() { drain(); }

void FrameServer::start() {
  if (accept_thread_.joinable()) {
    throw std::runtime_error(config_.role + ": already serving");
  }
  if (config_.unix_socket_path.empty() && config_.tcp_port < 0) {
    throw std::runtime_error(config_.role + ": no listener configured");
  }
  // Guarded: a failure partway (TCP bind after the unix listener bound,
  // pipe exhaustion) must not leak the fds already opened or leave the
  // socket file behind — the owner never reaches drain() for a start
  // that threw, and a leftover file would shadow a later start() on the
  // same path.
  try {
    if (!config_.unix_socket_path.empty()) listen_unix();
    if (config_.tcp_port >= 0) listen_tcp();
    if (::pipe(wake_pipe_) != 0) throw_errno("pipe");
    started_at_ = std::chrono::steady_clock::now();
    accept_thread_ = std::thread([this] { accept_loop(); });
  } catch (...) {
    close_listeners();
    bound_tcp_port_ = -1;
    throw;
  }
}

void FrameServer::listen_unix() {
  const std::string& path = config_.unix_socket_path;
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof addr.sun_path) {
    throw std::runtime_error("unix socket path too long: " + path);
  }
  std::strncpy(addr.sun_path, path.c_str(), sizeof addr.sun_path - 1);
  const auto* sa = reinterpret_cast<const sockaddr*>(&addr);
  unix_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (unix_fd_ < 0) throw_errno("socket(AF_UNIX)");
  if (::bind(unix_fd_, sa, sizeof addr) != 0) {
    if (errno != EADDRINUSE) throw_errno("bind(" + path + ")");
    // A stale socket file from a dead server is safe to replace; a live
    // server answers the probe connect and we refuse.
    const int probe = ::socket(AF_UNIX, SOCK_STREAM, 0);
    const bool live = probe >= 0 && ::connect(probe, sa, sizeof addr) == 0;
    if (probe >= 0) ::close(probe);
    if (live) throw std::runtime_error("socket path in use by a live server: " + path);
    ::unlink(path.c_str());
    if (::bind(unix_fd_, sa, sizeof addr) != 0) throw_errno("bind(" + path + ")");
  }
  unix_bound_ = true;
  if (::listen(unix_fd_, 128) != 0) throw_errno("listen(unix)");
}

void FrameServer::listen_tcp() {
  tcp_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (tcp_fd_ < 0) throw_errno("socket(AF_INET)");
  const int one = 1;
  ::setsockopt(tcp_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  const std::string host =
      config_.tcp_bind_host.empty() ? "127.0.0.1" : config_.tcp_bind_host;
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    addrinfo hints{};
    hints.ai_family = AF_INET;
    hints.ai_socktype = SOCK_STREAM;
    addrinfo* res = nullptr;
    const int rc = ::getaddrinfo(host.c_str(), nullptr, &hints, &res);
    if (rc != 0 || res == nullptr) {
      throw std::runtime_error(config_.role + ": cannot resolve bind host '" + host +
                               "': " + ::gai_strerror(rc));
    }
    addr.sin_addr = reinterpret_cast<sockaddr_in*>(res->ai_addr)->sin_addr;
    ::freeaddrinfo(res);
  }
  addr.sin_port = htons(static_cast<std::uint16_t>(config_.tcp_port));
  if (::bind(tcp_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    throw_errno("bind(" + host + ":" + std::to_string(config_.tcp_port) + ")");
  }
  if (::listen(tcp_fd_, 128) != 0) throw_errno("listen(tcp)");
  sockaddr_in bound{};
  socklen_t len = sizeof bound;
  if (::getsockname(tcp_fd_, reinterpret_cast<sockaddr*>(&bound), &len) == 0) {
    bound_tcp_port_ = static_cast<int>(ntohs(bound.sin_port));
  }
}

void FrameServer::close_listeners() {
  for (int* fd : {&unix_fd_, &tcp_fd_, &wake_pipe_[0], &wake_pipe_[1]}) {
    if (*fd >= 0) ::close(*fd);
    *fd = -1;
  }
  if (unix_bound_) ::unlink(config_.unix_socket_path.c_str());
  unix_bound_ = false;
}

void FrameServer::drain() {
  if (!accept_thread_.joinable()) return;
  // 1. Stop accepting: wake the poll and join the accept thread.
  [[maybe_unused]] const ::ssize_t wrc = ::write(wake_pipe_[1], "x", 1);
  accept_thread_.join();
  // 2. Half-close every connection: pending reads return EOF, writes
  //    (in-flight responses) still go through.
  {
    std::lock_guard lock(conns_mutex_);
    for (Connection& c : conns_) {
      if (!c.done.load()) ::shutdown(c.fd, SHUT_RD);
    }
  }
  // 3. Join connection threads; each finishes its current request first.
  //    With the accept thread gone nothing else changes the list, so the
  //    joins run unlocked: a handler answering HEALTH counts connections.
  for (Connection& c : conns_) {
    c.thread.join();
    ::close(c.fd);
  }
  {
    std::lock_guard lock(conns_mutex_);
    conns_.clear();
  }
  // 4. Listeners and the socket file.
  close_listeners();
}

double FrameServer::uptime_seconds() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - started_at_)
      .count();
}

std::size_t FrameServer::connections() {
  std::lock_guard lock(conns_mutex_);
  return conns_.size();
}

void FrameServer::accept_loop() {
  std::vector<pollfd> fds;
  for (const int fd : {unix_fd_, tcp_fd_}) {
    if (fd >= 0) fds.push_back(pollfd{fd, POLLIN, 0});
  }
  fds.push_back(pollfd{wake_pipe_[0], POLLIN, 0});
  for (;;) {
    // Finite timeout so finished and idle connections get reaped even on
    // a quiet listener.
    const int rc = ::poll(fds.data(), fds.size(), 200);
    if (rc < 0 && errno != EINTR) break;
    if (fds.back().revents != 0) break;  // wake pipe: draining
    for (std::size_t i = 0; rc > 0 && i + 1 < fds.size(); ++i) {
      if ((fds[i].revents & POLLIN) == 0) continue;
      const int conn_fd = ::accept(fds[i].fd, nullptr, nullptr);
      if (conn_fd < 0) continue;
      std::lock_guard lock(conns_mutex_);
      Connection& c = conns_.emplace_back();
      c.fd = conn_fd;
      c.last_activity_ms.store(steady_now_ms());
      c.thread = std::thread([this, &c] { serve_connection(c); });
      metrics_.counter("mcr_connections_total").add(1);
    }
    reap_connections();  // also refreshes mcr_active_connections
  }
}

void FrameServer::reap_connections() {
  const std::int64_t now_ms = steady_now_ms();
  std::lock_guard lock(conns_mutex_);
  for (auto it = conns_.begin(); it != conns_.end();) {
    Connection& c = *it;
    if (c.done.load()) {
      c.thread.join();
      ::close(c.fd);
      it = conns_.erase(it);
      continue;
    }
    if (config_.idle_timeout_ms > 0 && !c.idle_reaped &&
        now_ms - c.last_activity_ms.load() >= config_.idle_timeout_ms) {
      // Shutting the socket down makes the handler's blocked read return
      // EOF; the thread then exits normally and a later pass joins it.
      c.idle_reaped = true;
      ::shutdown(c.fd, SHUT_RDWR);
      metrics_.counter("mcr_idle_reaped_total").add(1);
    }
    ++it;
  }
  metrics_.gauge("mcr_active_connections").set(static_cast<std::int64_t>(conns_.size()));
}

void FrameServer::serve_connection(Connection& conn) {
  std::string payload;
  for (;;) {
    const ReadStatus st = read_frame(conn.fd, config_.max_frame_bytes, payload);
    if (st == ReadStatus::kClosed || st == ReadStatus::kTruncated) break;
    conn.last_activity_ms.store(steady_now_ms());
    if (st == ReadStatus::kBadMagic || st == ReadStatus::kTooLarge) {
      // Framing is unrecoverable: report (best effort) and close.
      metrics_.counter("mcr_bad_frames_total").add(1);
      const std::string response =
          st == ReadStatus::kTooLarge
              ? error_payload(kErrFrameTooLarge,
                              "frame exceeds the " + config_.role + "'s size limit")
              : error_payload(kErrBadFrame, "bad frame magic (expected MCR1)");
      (void)write_full(conn.fd, encode_frame(response));
      break;
    }
    // Per-connection error isolation: nothing a single request does —
    // allocation failure included — may take down the process or any
    // other connection. The envelope maps what it can to typed error
    // payloads; this is the last-resort belt for what it cannot
    // (bad_alloc while *building* an error answer, foreign throw types).
    std::string response;
    try {
      response = answer(payload);
    } catch (...) {
      metrics_.counter("mcr_connection_errors_total").add(1);
      response = error_payload(kErrInternal, config_.internal_error_message);
    }
    if (!write_full(conn.fd, encode_frame(response))) break;
  }
  // The fd is deliberately left open: the reaper (or drain) closes it
  // after joining this thread, so the idle reaper can never shut down a
  // recycled descriptor.
  conn.done.store(true);
}

std::string FrameServer::answer(const std::string& payload) {
  Request req{.payload = payload, .arrival = std::chrono::steady_clock::now()};
  std::string code;
  std::string response;
  try {
    // Allocation fault point: an injected kFail here behaves exactly
    // like the first allocation of request handling failing.
    if (MCR_FAULT_POINT(fault::Site::kAlloc).action == fault::Action::kFail) {
      throw std::bad_alloc();
    }
    req.body = json::parse(payload);
    if (!req.body.is_object()) {
      throw RequestError(kErrBadRequest, "request payload must be a JSON object");
    }
    req.verb = req.body.string_or("verb", "");
    if (std::find(kVerbs.begin(), kVerbs.end(), req.verb) == kVerbs.end()) {
      throw RequestError(kErrBadRequest,
                         "unknown verb '" + req.verb +
                             "' (expected PING | LOAD | SOLVE | "
                             "SOLVERS | STATS | HEALTH | TRACE | RELOAD)");
    }
    const std::string wire_id = req.body.string_or("trace_id", "");
    // An invalid id is refused, never echoed or retained: the answer and
    // the metrics exemplars carry a minted id instead.
    if (!wire_id.empty() && !is_valid_trace_id(wire_id)) {
      throw RequestError(kErrBadRequest,
                         "invalid trace_id (expected 1..64 characters from "
                         "[0-9a-zA-Z_-])");
    }
    req.client_trace_id = !wire_id.empty();
    req.trace_id = req.client_trace_id ? wire_id : generate_trace_id();
    req.parent_span = req.body.string_or("parent_span", "");
    if (req.parent_span.size() > kMaxTraceIdBytes) req.parent_span.resize(kMaxTraceIdBytes);
    response = handler_(req);
  } catch (const RequestError& e) {
    code = e.code;
    response = error_payload(e.code, e.what());
  } catch (const std::bad_alloc&) {
    // Out-of-memory is the daemon's problem, not the request's: report
    // INTERNAL (retryable-by-human), never BAD_REQUEST.
    metrics_.counter("mcr_connection_errors_total").add(1);
    code = kErrInternal;
    response = error_payload(kErrInternal, "out of memory handling request");
  } catch (const std::exception& e) {
    code = kErrBadRequest;
    response = error_payload(kErrBadRequest, e.what());
  }
  if (req.trace_id.empty()) req.trace_id = generate_trace_id();
  // The id leads the answer so its *last* field stays what it was:
  // clients cut "result", "chrome_trace" and "prometheus" by suffix. A
  // worker answer the router passes on already leads with it.
  const std::string lead = "{\"trace_id\":\"" + req.trace_id + '"';
  if (response.compare(0, lead.size(), lead) != 0) {
    response = with_trace_id(response, req.trace_id);
  }
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - req.arrival).count();
  if (finish_) finish_(req, code, seconds);
  record_request(req.verb, seconds, req.trace_id);
  return response;
}

std::string FrameServer::stats_json(const json::Value& request,
                                    std::string_view fields) const {
  std::string out = "{\"status\":\"ok\",\"uptime_seconds\":";
  out += json::format_number(uptime_seconds());
  out += ",\"build\":";
  out += obs::build_info_json();
  out += fields;
  // Opt-in: the windowed view costs a merge over every ring slot of
  // every per-verb instrument, so plain STATS callers don't pay it.
  if (request.has("window") && request.at("window").as_bool()) {
    out += ",\"window\":";
    out += window_json();
  }
  out += ",\"metrics\":";
  out += metrics_.json();
  out += ",\"prometheus\":\"";
  out += json_escape(metrics_.prometheus_text());
  out += "\"}";
  return out;
}

std::string FrameServer::window_json() const {
  std::vector<std::pair<std::string_view, obs::SlidingWindowHistogram::Snapshot>> views;
  for (std::size_t i = 0; i < instruments_.size(); ++i) {
    // The aggregate first, then kVerbs order, then "other".
    const std::size_t slot = (i + kAggregateSlot) % instruments_.size();
    const Instruments& in = instruments_[slot];
    if (!in.resolved.load(std::memory_order_acquire)) continue;
    const std::string_view verb = slot == kAggregateSlot ? "(all)"
                                  : slot == kOtherSlot   ? "other"
                                                         : kVerbs[slot];
    views.emplace_back(verb, in.window->snapshot());
  }
  double covered = 0.0;
  for (const auto& [verb, snap] : views) covered = std::max(covered, snap.covered_seconds);
  std::string out = "{\"window_seconds\":";
  out += json::format_number(config_.stats_window_s);
  out += ",\"covered_seconds\":" + json::format_number(covered);
  out += ",\"verbs\":{";
  for (const auto& [verb, snap] : views) {
    if (out.back() != '{') out += ',';
    out += '"';
    out += verb;
    out += "\":{\"count\":" + std::to_string(snap.count);
    // All verbs share one request timeline, so every rate is computed
    // over the window-wide covered span — a per-instrument span would
    // report absurd rates in the instant after a verb's first request.
    const double rps = covered > 0.0 ? static_cast<double>(snap.count) / covered : 0.0;
    out += ",\"rps\":" + json::format_number(rps);
    out += ",\"p50_ms\":" + window_quantile_ms_json(snap, 0.50);
    out += ",\"p95_ms\":" + window_quantile_ms_json(snap, 0.95);
    out += ",\"p99_ms\":" + window_quantile_ms_json(snap, 0.99);
    out += ",\"p999_ms\":" + window_quantile_ms_json(snap, 0.999);
    out += '}';
  }
  out += "}}";
  return out;
}

void FrameServer::record_request(std::string_view verb, double seconds,
                                 std::string_view trace_id) {
  const auto known = std::find(kVerbs.begin(), kVerbs.end(), verb);
  const std::size_t slot = known == kVerbs.end()
                               ? kOtherSlot
                               : static_cast<std::size_t>(known - kVerbs.begin());
  Instruments& all = instruments(kAggregateSlot);
  Instruments& one = instruments(slot);
  one.requests->add(1);
  all.seconds->observe(seconds, trace_id);
  one.seconds->observe(seconds, trace_id);
  // Windowed companions of the same family: what STATS {"window":true},
  // the stats pump, and `mcr_query top` read.
  all.window->observe(seconds);
  one.window->observe(seconds);
}

FrameServer::Instruments& FrameServer::instruments(std::size_t slot) {
  Instruments& in = instruments_[slot];
  std::call_once(in.once, [&] {
    const obs::SlidingWindowHistogram::Options wopt{
        config_.stats_window_s, config_.stats_window_slots, {}};
    std::string name = "mcr_request_seconds";
    if (slot != kAggregateSlot) {
      const std::string_view verb = slot == kOtherSlot ? "other" : kVerbs[slot];
      in.requests = &metrics_.counter(obs::labeled_name("mcr_requests_total", {{"verb", verb}}));
      name = obs::labeled_name("mcr_request_seconds", {{"verb", verb}});
    }
    in.seconds = &metrics_.histogram(name, request_seconds_bounds());
    in.window = &metrics_.windowed_histogram(name, request_seconds_bounds(), wopt);
    in.resolved.store(true, std::memory_order_release);
  });
  return in;
}

}  // namespace mcr::svc
