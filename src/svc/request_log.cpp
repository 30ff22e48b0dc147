#include "svc/request_log.h"

#include "svc/frame_server.h"
#include "svc/protocol.h"

namespace mcr::svc {

RequestLog::RequestLog(const std::string& path)
    : out_(path, std::ios::out | std::ios::app) {}

std::string RequestLog::format(const Entry& entry) {
  std::string out = "{\"ts_ms\":" + json::format_number(entry.ts_ms);
  const auto str_field = [&](const char* key, const std::string& value) {
    if (value.empty()) return;
    out += ",\"";
    out += key;
    out += "\":\"";
    out += json_escape(value);
    out += '"';
  };
  const auto ms_field = [&](const char* key, double value) {
    if (value < 0.0) return;
    out += ",\"";
    out += key;
    out += "\":";
    out += json::format_number(value);
  };
  str_field("trace_id", entry.trace_id);
  str_field("verb", entry.verb);
  str_field("fingerprint", entry.fingerprint);
  str_field("algo", entry.algo);
  str_field("objective", entry.objective);
  str_field("cache", entry.cache);
  ms_field("queue_ms", entry.queue_ms);
  ms_field("solve_ms", entry.solve_ms);
  ms_field("deadline_ms", entry.deadline_ms);
  // "code" is always present so success lines are greppable as code:"".
  out += ",\"code\":\"";
  out += json_escape(entry.code);
  out += '"';
  ms_field("total_ms", entry.total_ms);
  out += '}';
  return out;
}

void RequestLog::write(const Entry& entry) {
  if (!out_) return;
  const std::string line = format(entry);
  std::lock_guard<std::mutex> lock(mutex_);
  out_ << line << '\n';
  out_.flush();
}

}  // namespace mcr::svc
