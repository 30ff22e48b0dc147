// Wire protocol for the mcr solve service.
//
// Framing: every message (request and response alike) is one frame —
//
//   +-------------------+---------------------+------------------+
//   | magic "MCR1" (4B) | payload length (4B) | payload (JSON)   |
//   +-------------------+---------------------+------------------+
//
// The length is an unsigned 32-bit little-endian byte count of the
// payload only. The payload is one UTF-8 JSON object. The magic lets
// the server detect a desynchronized or non-protocol peer on the first
// read instead of interpreting garbage as a length; frames above the
// configured maximum are rejected before any allocation of the stated
// size.
//
// Requests carry a "verb" field (PING / LOAD / SOLVE / SOLVERS /
// STATS / HEALTH / TRACE / RELOAD); responses carry "status": "ok" or
// "error" (with "code" and "message"). See docs/SERVICE.md for the
// full verb and error-code reference.
#ifndef MCR_SVC_PROTOCOL_H
#define MCR_SVC_PROTOCOL_H

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "support/json.h"

namespace mcr::svc {

/// The protocol's verbs. The request envelope refuses any other verb —
/// missing and empty included — and request metrics label it "other",
/// so no client input can grow the label set.
inline constexpr std::array<std::string_view, 8> kVerbs = {
    "PING", "LOAD", "SOLVE", "SOLVERS", "STATS", "HEALTH", "TRACE", "RELOAD"};

inline constexpr char kMagic[4] = {'M', 'C', 'R', '1'};
inline constexpr std::size_t kHeaderBytes = 8;
/// Default cap on one frame's payload; LOAD of an inline DIMACS graph
/// is the only verb that approaches it.
inline constexpr std::size_t kDefaultMaxFrameBytes = 16u * 1024 * 1024;

/// Error codes the server puts in `"code"`. Stable protocol strings.
inline constexpr const char* kErrBadRequest = "BAD_REQUEST";
inline constexpr const char* kErrNotFound = "NOT_FOUND";
inline constexpr const char* kErrBusy = "BUSY";
inline constexpr const char* kErrDeadline = "DEADLINE_EXCEEDED";
inline constexpr const char* kErrFrameTooLarge = "FRAME_TOO_LARGE";
inline constexpr const char* kErrBadFrame = "BAD_FRAME";
inline constexpr const char* kErrShuttingDown = "SHUTTING_DOWN";
inline constexpr const char* kErrInternal = "INTERNAL";
/// Minted by mcr_router when no healthy replica could serve a request
/// (every candidate's breaker open, all replicas failed, or the only
/// response was cut off mid-frame). Retryable: the fleet's momentary
/// state, not the request.
inline constexpr const char* kErrUpstream = "UPSTREAM_UNAVAILABLE";

/// Header + payload as one byte string ready for write().
[[nodiscard]] std::string encode_frame(std::string_view payload);

/// Blocking read of exactly n bytes. Returns n on success, 0 on clean
/// EOF before the first byte, -1 on error or short delivery (errno set
/// by the failing syscall). Retries EINTR and short counts internally —
/// every svc read goes through this helper so interrupted syscalls can
/// never desynchronize the frame stream. Under MCR_FAULT_INJECTION the
/// per-syscall fault hook (Site::kSockRead) can shorten reads, inject
/// EINTR rounds, or simulate ECONNRESET here.
[[nodiscard]] std::ptrdiff_t read_full(int fd, char* buf, std::size_t n);

/// Blocking write of all bytes; retries EINTR and short writes. Returns
/// false on any unrecoverable write error (e.g. EPIPE, ECONNRESET),
/// with errno set. Uses send(MSG_NOSIGNAL) so a peer that closed
/// mid-response surfaces as an error instead of SIGPIPE (non-socket fds
/// fall back to write()). Fault hook: Site::kSockWrite.
[[nodiscard]] bool write_full(int fd, std::string_view bytes);

enum class ReadStatus {
  kOk,        // one whole frame read into `payload`
  kClosed,    // clean EOF before any header byte
  kBadMagic,  // first four bytes are not "MCR1"
  kTooLarge,  // declared length exceeds the caller's max
  kTruncated, // peer closed (or errored) mid-header / mid-payload
};

/// Blocking read of exactly one frame from `fd`. On kOk, `payload`
/// holds the payload bytes; on any other status its contents are
/// unspecified. Retries EINTR; any other read error maps to kTruncated
/// (kClosed when no byte had arrived yet).
[[nodiscard]] ReadStatus read_frame(int fd, std::size_t max_frame_bytes,
                                    std::string& payload);

/// json::escape under the name the svc code uses: a string's bytes
/// escaped for the inside of a JSON string literal.
[[nodiscard]] inline std::string json_escape(std::string_view s) { return json::escape(s); }

/// `{"status":"error","code":"<code>","message":"<escaped message>"}`.
[[nodiscard]] std::string error_payload(std::string_view code, std::string_view message);

// --- Trace context -------------------------------------------------------
//
// Requests may carry optional "trace_id" / "parent_span" fields; the
// request envelope both daemons share (frame_server.h) mints a trace_id
// when the client sent none and echoes it in every response (success and
// error alike), so one id follows the request across client retries,
// the flight recorder, the access log, and histogram exemplars.

/// Maximum accepted trace-id length on the wire.
inline constexpr std::size_t kMaxTraceIdBytes = 64;

/// Fresh process-unique trace id: 32 lowercase hex characters (128
/// random-looking bits from a seeded counter — uniqueness, not
/// cryptography).
[[nodiscard]] std::string generate_trace_id();

/// Accepts 1..kMaxTraceIdBytes characters from [0-9a-zA-Z_-]. Anything
/// else is rejected (the envelope then answers BAD_REQUEST rather than
/// echoing attacker-shaped bytes into logs and exports).
[[nodiscard]] bool is_valid_trace_id(std::string_view id);

/// Splices `"<key>":"<escaped value>",` immediately after the opening
/// '{' of a serialized JSON object, keeping the object's existing field
/// order — and crucially its *last* field — intact. Returns the payload
/// unchanged when it is not an object.
[[nodiscard]] std::string splice_field_front(std::string_view json_object,
                                             std::string_view key,
                                             std::string_view value);

/// splice_field_front of "trace_id"; the payload is returned unchanged
/// when the id is empty.
[[nodiscard]] std::string with_trace_id(std::string_view json_object,
                                        std::string_view trace_id);

// --- Client numbers ------------------------------------------------------
//
// JSON numbers arrive as doubles, so a client can send 1e300 where an
// integer or a clock duration is meant. Both daemons read such fields
// through these helpers, which clamp before any integer cast.

/// Cap on "deadline_ms" (~31 years): the microsecond count stays far
/// inside int64 and the steady clock's range.
inline constexpr double kMaxDeadlineMs = 1e12;
/// Cap on a client count such as TRACE's "limit".
inline constexpr double kMaxClientCount = 1e9;

/// The request's "deadline_ms" budget, capped at kMaxDeadlineMs;
/// nullopt when the field is absent or not positive.
[[nodiscard]] std::optional<std::chrono::microseconds> request_deadline(
    const json::Value& req);

/// The request's `key` (else `fallback`) as a count: clamped to
/// [0, kMaxClientCount], fraction dropped.
[[nodiscard]] std::size_t request_count(const json::Value& req, const std::string& key,
                                        double fallback);

}  // namespace mcr::svc

#endif  // MCR_SVC_PROTOCOL_H
