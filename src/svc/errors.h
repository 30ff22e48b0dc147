// Typed client-side errors for the mcr solve service, and the one place
// that classifies them for retry and failover. Who resends what — the
// client's request_retry, mcr_load, the router's failover — is the
// table in docs/ROBUSTNESS.md ("Who resends what"); the functions below
// are that table's code.
//
// Two failure families, deliberately distinct types:
//
//  - TransportError: the conversation itself broke (connect refused,
//    reset, truncated frame, unparseable response). The connection is
//    dead; retrying requires a reconnect.
//  - ServiceError: the server answered, with "status":"error". The
//    connection is fine. Carries the protocol error code.
//
// Both derive std::runtime_error so existing catch sites keep working.
#ifndef MCR_SVC_ERRORS_H
#define MCR_SVC_ERRORS_H

#include <stdexcept>
#include <string>
#include <string_view>

namespace mcr::svc {

class TransportError : public std::runtime_error {
 public:
  explicit TransportError(const std::string& what, bool partial_response = false)
      : std::runtime_error(what), partial_response_(partial_response) {}

  /// True when some response bytes arrived before the stream broke. The
  /// server may then have acted on the request, so the router never
  /// sends it again; false means nothing came back.
  [[nodiscard]] bool partial_response() const { return partial_response_; }

 private:
  bool partial_response_;
};

class ServiceError : public std::runtime_error {
 public:
  ServiceError(std::string code, const std::string& message)
      : std::runtime_error(code + ": " + message), code_(std::move(code)) {}

  [[nodiscard]] const std::string& code() const { return code_; }
  /// True for errors that describe transient server state.
  [[nodiscard]] bool retryable() const { return is_retryable_code(code_); }

  /// Codes a client may resend the request for: they describe the
  /// server's (or, through mcr_router, the fleet's) momentary state, not
  /// the request. Resending SOLVE is safe — results are cached and
  /// single-flighted by fingerprint, so a resend joins the in-flight
  /// solve or hits the cache.
  [[nodiscard]] static bool is_retryable_code(std::string_view code) {
    return code == "BUSY" || code == "DEADLINE_EXCEEDED" || code == "SHUTTING_DOWN" ||
           code == "UPSTREAM_UNAVAILABLE";
  }

  /// Worker answers on which mcr_router tries the next replica: the
  /// retryable codes except DEADLINE_EXCEEDED. A failover shares the
  /// request's already-spent deadline, while a client retry carries a
  /// fresh one.
  [[nodiscard]] static bool may_fail_over(std::string_view code) {
    return is_retryable_code(code) && code != "DEADLINE_EXCEEDED";
  }

 private:
  std::string code_;
};

}  // namespace mcr::svc

#endif  // MCR_SVC_ERRORS_H
