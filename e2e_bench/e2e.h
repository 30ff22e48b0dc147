// mcr_e2e — the end-to-end benchmark of the mcr library, the solve
// service (mcr_serve) and the fleet (mcr_router in front of workers).
//
// The benchmark generates every input from one seed, starts the real
// daemons as child processes, drives them from its own closed-loop
// client threads, checks every answer against an in-process certified
// reference, and measures the layers only from outside: by timing calls
// into their public functions, by STATS counter deltas, and by reading
// /proc/<pid>/{stat,status}. README.md describes the workloads and
// metrics.
#ifndef MCR_E2E_E2E_H
#define MCR_E2E_E2E_H

#include <sys/types.h>

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/driver.h"
#include "core/result.h"
#include "graph/graph.h"
#include "support/prng.h"
#include "svc/cache.h"
#include "svc/client.h"

namespace e2e {

using Clock = std::chrono::steady_clock;

[[nodiscard]] double ms_between(Clock::time_point a, Clock::time_point b);

/// Nearest-rank quantile of a sample (q in [0,1]); 0 for an empty one.
[[nodiscard]] double quantile(std::vector<double> sample, double q);

// --- Inputs and the answer oracle (inputs.cpp) ---------------------------

/// SPRAND shape: n nodes, m arcs, weights U[1,10000], transit U[1,max_transit].
struct Family {
  mcr::NodeId n = 0;
  mcr::ArcId m = 0;
  std::int64_t max_transit = 1;
};

/// One generated graph in every form the benchmark sends or replays.
struct Instance {
  std::uint64_t seed = 0;  // generator seed, printed when an answer mismatches
  std::shared_ptr<const mcr::Graph> graph;
  std::string fingerprint;
  std::string dimacs;  // empty unless requested
};

/// `count` instances whose generator seeds are drawn from `rng`.
[[nodiscard]] std::vector<Instance> generate(const Family& family, std::size_t count,
                                             mcr::Prng& rng, bool with_dimacs);

/// One (instance, objective, solver) question.
struct Query {
  std::size_t instance = 0;
  std::string objective;  // min_mean | max_mean | min_ratio | max_ratio
  std::string algo;
};

/// The certified reference answer to a Query. `prefix` is the service's
/// result object for it up to (not including) the "milliseconds" field,
/// the only field that legitimately differs between two solves.
struct Answer {
  mcr::CycleResult result;
  std::string prefix;
};

/// Solves through the library entry point the service uses for `objective`.
[[nodiscard]] mcr::CycleResult solve(const mcr::Graph& g, const std::string& objective,
                                     const std::string& algo,
                                     const mcr::SolveOptions& options = {});

/// Solves every query in-process (num_threads = 1) on `threads` worker
/// threads and certifies each result with verify_result (maximum
/// objectives on the negated graph). Throws, naming the generator seed,
/// when a certificate fails.
[[nodiscard]] std::vector<Answer> oracle(const std::vector<Instance>& instances,
                                         const std::vector<Query>& queries, int threads);

/// Wire payloads, in the field order the service documents.
[[nodiscard]] std::string load_payload(const Instance& in);
[[nodiscard]] std::string solve_fp_payload(const Instance& in, const std::string& objective);
[[nodiscard]] std::string solve_dimacs_payload(const Instance& in,
                                               const std::string& objective);

/// True when `response` is an ok SOLVE response whose result object
/// equals `answer` byte for byte up to "milliseconds". *cached reports
/// the response's "cached" flag.
[[nodiscard]] bool solve_matches(std::string_view response, const Answer& answer,
                                 bool* cached);
/// True when `response` is an ok LOAD response naming `fingerprint`.
[[nodiscard]] bool load_matches(std::string_view response, const std::string& fingerprint);

// --- Child processes and /proc (procs.cpp) ------------------------------

/// A spawned program. The destructor stops it: SIGTERM (the daemons
/// drain), then SIGKILL if it has not exited within 10 s; always reaped.
class Process {
 public:
  /// Starts argv[0] with stdout and stderr appended to `log_path`.
  Process(const std::vector<std::string>& argv, const std::string& log_path);
  ~Process();
  Process(const Process&) = delete;
  Process& operator=(const Process&) = delete;
  Process(Process&&) = delete;
  Process& operator=(Process&&) = delete;

  void stop();
  [[nodiscard]] pid_t pid() const { return pid_; }

 private:
  pid_t pid_ = -1;
};

/// utime + stime of a live process, in milliseconds.
[[nodiscard]] double cpu_ms(pid_t pid);
/// VmHWM of a live process, in MB (10^6 bytes); pid 0 reads the calling process.
[[nodiscard]] double peak_rss_mb(pid_t pid);
/// Resets the calling process's VmHWM to its current RSS. False when
/// the kernel refuses (the peak then covers the whole process life).
bool reset_peak_rss();
/// CPU seconds of the calling process (all threads).
[[nodiscard]] double process_cpu_s();
/// CPU seconds of the calling thread.
[[nodiscard]] double thread_cpu_s();

/// Connects to a unix socket, retrying until a PING succeeds or
/// `timeout_s` passes (then throws).
[[nodiscard]] mcr::svc::Client connect_when_ready(const std::string& socket,
                                                  double timeout_s);

/// Counter values and histogram (count, sum) pairs of one STATS reply.
struct StatsSnapshot {
  std::map<std::string, double> counters;
  std::map<std::string, std::pair<double, double>> histograms;
  [[nodiscard]] double counter(const std::string& name) const;
};
[[nodiscard]] StatsSnapshot read_stats(mcr::svc::Client& client);

// --- Traced replay of the server's call sequence (replay.cpp) ------------

struct ReplayOptions {
  /// Graphs resident before the replay starts (serve_warm's LOADed set).
  std::vector<const Instance*> resident;
  /// Results cached before the replay starts (serve_warm's warmed keys).
  std::vector<std::pair<mcr::svc::CacheKey, mcr::CycleResult>> cached;
  /// Start every payload with an empty result cache (the library never caches).
  bool fresh_cache = false;
};

struct ReplayResult {
  /// Self time of each layer span, one sample per call, in microseconds.
  std::map<std::string, std::vector<double>> self_us;
  /// Per payload: replayed time outside the core driver, in milliseconds.
  std::vector<double> outside_solve_ms;
  /// solver -> driver phase -> one sample per solve, in milliseconds.
  std::map<std::string, std::map<std::string, std::vector<double>>> phase_ms;
  /// solver -> mcr_ops_* counter -> mean per solve.
  std::map<std::string, std::map<std::string, double>> ops_per_solve;
  /// Chrome trace_event JSON of the replay spans.
  std::string chrome_trace;
};

/// Replays each payload in-process through the calls the server makes
/// for it — json::parse, read_dimacs, fingerprint_hex, the insertion into
/// a 64-entry GraphRegistry, ResultCache::acquire, the core driver,
/// result_json, encode_frame — each under an obs::TraceRecorder span.
[[nodiscard]] ReplayResult replay(const std::vector<std::string_view>& payloads,
                                  const ReplayOptions& options);

/// Replays the five metric calls the server's finish_request makes per
/// request (a labeled counter, two histograms built from fresh bounds
/// vectors, two windowed observes) on `threads` threads sharing one
/// MetricsRegistry; one sample per call group, in microseconds.
[[nodiscard]] std::vector<double> replay_finish_request(int threads, int iterations);

}  // namespace e2e

#endif  // MCR_E2E_E2E_H
