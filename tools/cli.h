// Minimal command-line option parsing shared by the mcr tools.
// Deliberately tiny: "--key value", "--key=value", bare "--flag", and
// positional arguments. Parsing is a pure function over strings so the
// test suite can drive it without spawning processes. Also the daemons'
// shared signal handling (install_signal_pipe / wait_for_shutdown).
#ifndef MCR_TOOLS_CLI_H
#define MCR_TOOLS_CLI_H

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace mcr::cli {

struct Options {
  std::map<std::string, std::string> named;  // flag -> value ("" for bare flags; last wins)
  /// Every value of every flag, in command-line order. A flag given N
  /// times has N entries here while `named` keeps only the last — so
  /// repeatable flags (e.g. mcr_router --worker, mcr_load --target)
  /// coexist with the last-wins convention the other tools rely on.
  std::map<std::string, std::vector<std::string>> repeated;
  std::vector<std::string> positional;

  [[nodiscard]] bool has(const std::string& key) const { return named.count(key) > 0; }
  /// Value of --key, or fallback when absent.
  [[nodiscard]] std::string get(const std::string& key, const std::string& fallback = "") const;
  /// All values of --key in the order given; empty when absent.
  [[nodiscard]] std::vector<std::string> get_all(const std::string& key) const;
  /// Integer value of --key; throws std::invalid_argument on garbage.
  [[nodiscard]] std::int64_t get_int(const std::string& key, std::int64_t fallback) const;
  /// get_int constrained to [min, max]; throws std::invalid_argument
  /// (naming the flag and the bounds) when the value falls outside.
  /// Used for count-like flags such as --threads and --trials.
  [[nodiscard]] std::int64_t get_int_in(const std::string& key, std::int64_t fallback,
                                        std::int64_t min, std::int64_t max) const;
  /// Floating-point value of --key; throws std::invalid_argument on garbage.
  [[nodiscard]] double get_double(const std::string& key, double fallback) const;
};

/// Parses argv[1..argc). Throws std::invalid_argument on malformed
/// input (e.g. "---x" or a lone "--").
[[nodiscard]] Options parse(const std::vector<std::string>& args);
[[nodiscard]] Options parse(int argc, const char* const* argv);

/// The daemons' --listen [HOST:]PORT (HOST defaults to 127.0.0.1, PORT 0
/// is ephemeral): sets `host` and `port` when the flag is given, leaves
/// them alone otherwise. Throws std::invalid_argument on a malformed
/// spec, a unix: one included.
void parse_listen(const Options& opt, std::string& host, int& port);

/// Daemon signal handling through a self-pipe: SIGPIPE is ignored, and
/// SIGTERM/SIGINT (plus SIGHUP when `hangup` is set) only write a byte
/// that wait_for_shutdown() reads on the main thread, where the
/// non-async-signal-safe drain can run. Call it BEFORE start(): a
/// supervisor restarting quickly can deliver SIGTERM during startup, and
/// the default action would skip the drain (dropping in-flight work,
/// orphaning the socket file). Throws std::runtime_error when the pipe
/// cannot be created.
void install_signal_pipe(bool hangup);

/// Blocks until SIGTERM or SIGINT has arrived (returning at once for
/// one that arrived earlier), calling `on_hangup` for each SIGHUP before
/// it.
void wait_for_shutdown(const std::function<void()>& on_hangup = {});

}  // namespace mcr::cli

#endif  // MCR_TOOLS_CLI_H
