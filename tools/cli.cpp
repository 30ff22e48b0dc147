#include "cli.h"

#include <unistd.h>

#include <csignal>
#include <stdexcept>

#include "svc/client.h"

namespace mcr::cli {

namespace {

int g_signal_pipe[2] = {-1, -1};

void on_shutdown_signal(int) {
  [[maybe_unused]] const ssize_t rc = ::write(g_signal_pipe[1], "x", 1);
}

void on_hangup_signal(int) {
  [[maybe_unused]] const ssize_t rc = ::write(g_signal_pipe[1], "h", 1);
}

}  // namespace

std::string Options::get(const std::string& key, const std::string& fallback) const {
  const auto it = named.find(key);
  return it == named.end() ? fallback : it->second;
}

std::vector<std::string> Options::get_all(const std::string& key) const {
  const auto it = repeated.find(key);
  return it == repeated.end() ? std::vector<std::string>{} : it->second;
}

std::int64_t Options::get_int(const std::string& key, std::int64_t fallback) const {
  const auto it = named.find(key);
  if (it == named.end()) return fallback;
  std::size_t pos = 0;
  std::int64_t v = 0;
  try {
    v = std::stoll(it->second, &pos);
  } catch (const std::exception&) {
    throw std::invalid_argument("option --" + key + " expects an integer, got '" +
                                it->second + "'");
  }
  if (pos != it->second.size()) {
    throw std::invalid_argument("option --" + key + " expects an integer, got '" +
                                it->second + "'");
  }
  return v;
}

std::int64_t Options::get_int_in(const std::string& key, std::int64_t fallback,
                                 std::int64_t min, std::int64_t max) const {
  const std::int64_t v = get_int(key, fallback);
  if (v < min || v > max) {
    throw std::invalid_argument("option --" + key + " expects an integer in [" +
                                std::to_string(min) + ", " + std::to_string(max) +
                                "], got " + std::to_string(v));
  }
  return v;
}

double Options::get_double(const std::string& key, double fallback) const {
  const auto it = named.find(key);
  if (it == named.end()) return fallback;
  std::size_t pos = 0;
  double v = 0.0;
  try {
    v = std::stod(it->second, &pos);
  } catch (const std::exception&) {
    throw std::invalid_argument("option --" + key + " expects a number, got '" +
                                it->second + "'");
  }
  if (pos != it->second.size()) {
    throw std::invalid_argument("option --" + key + " expects a number, got '" +
                                it->second + "'");
  }
  return v;
}

Options parse(const std::vector<std::string>& args) {
  Options out;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (arg.rfind("--", 0) != 0) {
      out.positional.push_back(arg);
      continue;
    }
    if (arg.size() == 2) throw std::invalid_argument("lone '--' is not a valid option");
    if (arg[2] == '-') throw std::invalid_argument("malformed option: " + arg);
    const std::string body = arg.substr(2);
    const std::size_t eq = body.find('=');
    std::string key;
    std::string value;
    if (eq != std::string::npos) {
      key = body.substr(0, eq);
      value = body.substr(eq + 1);
    } else if (i + 1 < args.size() && args[i + 1].rfind("--", 0) != 0) {
      key = body;
      value = args[i + 1];
      ++i;
    } else {
      key = body;
    }
    out.named[key] = value;
    out.repeated[key].push_back(value);
  }
  return out;
}

Options parse(int argc, const char* const* argv) {
  std::vector<std::string> args;
  for (int i = 1; i < argc; ++i) args.emplace_back(argv[i]);
  return parse(args);
}

void parse_listen(const Options& opt, std::string& host, int& port) {
  if (!opt.has("listen")) return;
  const svc::BackendAddress listen =
      svc::parse_backend_address(opt.get("listen"), /*allow_port_zero=*/true);
  if (listen.kind != svc::BackendAddress::Kind::kTcp) {
    throw std::invalid_argument("--listen expects [HOST:]PORT");
  }
  host = listen.host;
  port = listen.port;
}

void install_signal_pipe(bool hangup) {
  if (::pipe(g_signal_pipe) != 0) throw std::runtime_error("cannot create signal pipe");
  std::signal(SIGPIPE, SIG_IGN);
  std::signal(SIGTERM, on_shutdown_signal);
  std::signal(SIGINT, on_shutdown_signal);
  if (hangup) std::signal(SIGHUP, on_hangup_signal);
}

void wait_for_shutdown(const std::function<void()>& on_hangup) {
  for (;;) {
    char byte = 0;
    const ssize_t got = ::read(g_signal_pipe[0], &byte, 1);
    if (got < 0) continue;  // EINTR: retry and pick up the handler's byte
    if (got == 0 || byte != 'h') return;
    if (on_hangup) on_hangup();
  }
}

}  // namespace mcr::cli
