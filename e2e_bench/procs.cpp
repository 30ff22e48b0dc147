// Child processes, /proc readings and STATS snapshots.
#include <fcntl.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "e2e.h"

namespace e2e {

Process::Process(const std::vector<std::string>& argv, const std::string& log_path) {
  std::vector<char*> args;
  for (const std::string& a : argv) args.push_back(const_cast<char*>(a.c_str()));
  args.push_back(nullptr);
  const int log = ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
  if (log < 0) throw std::runtime_error("cannot open " + log_path + ": " + std::strerror(errno));
  pid_ = ::fork();
  if (pid_ == 0) {
    ::dup2(log, STDOUT_FILENO);
    ::dup2(log, STDERR_FILENO);
    // Client sockets of this process must not stay open in a daemon.
    ::close_range(3, ~0U, 0);
    ::execv(args[0], args.data());
    ::_exit(127);
  }
  const int fork_errno = errno;
  ::close(log);
  if (pid_ < 0) throw std::runtime_error(std::string("fork: ") + std::strerror(fork_errno));
}

Process::~Process() { stop(); }

void Process::stop() {
  if (pid_ <= 0) return;
  ::kill(pid_, SIGTERM);
  int status = 0;
  const auto deadline = Clock::now() + std::chrono::seconds(10);
  while (::waitpid(pid_, &status, WNOHANG) == 0) {
    if (Clock::now() > deadline) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, &status, 0);
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  pid_ = -1;
}

double cpu_ms(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string line;
  if (!std::getline(in, line)) throw std::runtime_error("cannot read /proc/<pid>/stat");
  // The command name may hold spaces; fields resume after its ')'.
  std::istringstream fields(line.substr(line.rfind(')') + 2));
  std::string skip;
  for (int field = 3; field < 14; ++field) fields >> skip;
  double utime = 0;
  double stime = 0;
  fields >> utime >> stime;
  return (utime + stime) * 1000.0 / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

double peak_rss_mb(pid_t pid) {
  std::ifstream in(pid == 0 ? std::string("/proc/self/status")
                            : "/proc/" + std::to_string(pid) + "/status");
  std::string key;
  while (in >> key) {
    if (key == "VmHWM:") {
      double kib = 0;
      in >> kib;
      return kib * 1024.0 / 1e6;
    }
    in.ignore(1 << 20, '\n');
  }
  throw std::runtime_error("no VmHWM in /proc/<pid>/status");
}

bool reset_peak_rss() {
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
  out.flush();
  return static_cast<bool>(out);
}

double process_cpu_s() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

double thread_cpu_s() {
  timespec ts{};
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

mcr::svc::Client connect_when_ready(const std::string& socket, double timeout_s) {
  const auto deadline = Clock::now() + std::chrono::duration<double>(timeout_s);
  for (;;) {
    try {
      mcr::svc::Client client = mcr::svc::Client::connect_unix(socket);
      if (client.ping()) return client;
    } catch (const std::exception& e) {
      if (Clock::now() > deadline) {
        throw std::runtime_error(socket + " not ready after " + std::to_string(timeout_s) +
                                 " s: " + e.what());
      }
    }
    // Fine-grained: a daemon starts in a few ms, and setup_s times this wait.
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
}

double StatsSnapshot::counter(const std::string& name) const {
  const auto it = counters.find(name);
  return it == counters.end() ? 0.0 : it->second;
}

StatsSnapshot read_stats(mcr::svc::Client& client) {
  const mcr::json::Value reply = client.stats();
  if (reply.string_or("status", "") != "ok") {
    throw std::runtime_error("STATS failed: " + reply.string_or("message", "?"));
  }
  const mcr::json::Value& metrics = reply.at("metrics");
  StatsSnapshot out;
  for (const auto& [name, value] : metrics.at("counters").as_object()) {
    out.counters[name] = value.as_double();
  }
  for (const auto& [name, h] : metrics.at("histograms").as_object()) {
    out.histograms[name] = {h.at("count").as_double(), h.at("sum").as_double()};
  }
  return out;
}

}  // namespace e2e
