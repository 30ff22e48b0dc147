// mcr_e2e — one seeded end-to-end benchmark for the library, the solve
// service and the fleet. README.md documents workloads and metrics.
//
//   mcr_e2e --workload serve_warm|serve_cold|fleet_load_solve|library_kernel|all
//           --serve-bin PATH --router-bin PATH --benchmark-json PATH
//           [--seed N] [--seconds S] [--trace 0|1] [--warmup S]
//           [--setup-reps N] [--out-dir DIR]
//
// Prints one `workload metric value unit` line per metric, writes
// results_<workload>.json (and trace_<workload>.json with --trace 1)
// into --out-dir, and ends with one JSON line:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{"value":..,"unit":..}}}
// --trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1
// its per-layer metrics; the run fails when the set it computed differs
// from the declared one. Exit status 0 only when every answer was
// correct and every invariant (exact cache hit ratios, zero router
// failures) held.
#include <algorithm>
#include <atomic>
#include <charconv>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <mutex>
#include <optional>
#include <set>
#include <thread>

#include "cli.h"
#include "e2e.h"
#include "gen/sprand.h"
#include "obs/trace_recorder.h"
#include "store/pack_reader.h"
#include "store/pack_writer.h"
#include "svc/protocol.h"

namespace e2e {
namespace {

const std::vector<std::string> kWorkloads = {"serve_warm", "serve_cold", "fleet_load_solve",
                                             "library_kernel"};
const std::vector<std::string> kSolvers = {"howard", "howard_ratio", "yto", "yto_ratio"};
/// Closed-loop connections, all from this one process. With 4, warm-hit
/// throughput on a 4-core host swung by 1.5x between runs; with 2 it held.
constexpr int kConnections = 2;
/// The measured phase runs in segments of about this length, and the
/// end-to-end metrics are medians over them. Service clients reconnect for
/// each segment: a new connection gets a new server thread, so one run
/// samples several placements of client and server threads on CPUs
/// instead of keeping whichever one its first connection drew (worth
/// +-15% of warm-hit throughput on a 4-vCPU host).
constexpr double kSegmentSeconds = 2.0;
/// Cold pools are at least twice each worker's 1024-entry result cache,
/// so a graph's results are evicted before the cursor comes back to it.
constexpr std::size_t kColdPool = 2048;
/// YTO times vary by +-25% between sprand instances; 256 per family keep
/// the pool's mean within about 2% from seed to seed.
constexpr std::size_t kLibraryPool = 256;
constexpr std::size_t kReplayPayloads = 256;
constexpr double kReadyTimeout = 30.0;

struct Config {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  double warmup = 2.0;
  int setup_reps = 15;
  bool traced = false;
  std::string serve_bin;
  std::string router_bin;
  std::string benchmark_json;
};

std::string fmt(double v) {
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, r.ptr);
}

Clock::duration seconds_to_duration(double s) {
  return std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(s));
}

/// Metric name -> (value, unit), kept in insertion order.
class Metrics {
 public:
  void set(const std::string& name, double value, const std::string& unit) {
    for (auto& m : list_) {
      if (m.name == name) {
        m.value = value;
        m.unit = unit;
        return;
      }
    }
    list_.push_back({name, value, unit});
  }
  [[nodiscard]] double value(const std::string& name) const {
    for (const auto& m : list_) {
      if (m.name == name) return m.value;
    }
    throw std::logic_error("metric " + name + " not set");
  }
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  [[nodiscard]] const std::vector<Entry>& list() const { return list_; }

 private:
  std::vector<Entry> list_;
};

/// Counts failed operations and prints the first few with their seed.
class Failures {
 public:
  void add(const std::string& what) {
    const std::lock_guard lock(mutex_);
    if (++count_ <= 10) std::cerr << "mcr_e2e: FAILED " << what << "\n";
  }
  [[nodiscard]] std::uint64_t count() const {
    const std::lock_guard lock(mutex_);
    return count_;
  }

 private:
  mutable std::mutex mutex_;
  std::uint64_t count_ = 0;
};

/// One ~2 s segment of a measured phase: the latencies of the operations
/// it completed and the CPU spent on them.
struct Segment {
  double seconds = 0;
  std::vector<double> latency_ms;
  double cpu_ms = 0;
};

/// Throughput, latency and CPU per operation, each the median over the
/// run's segments: a host stall of a second or two then moves one segment
/// of five, not the whole run.
void report_end_to_end(const std::vector<Segment>& segments, Metrics& m) {
  std::vector<double> tput;
  std::vector<double> p50;
  std::vector<double> p99;
  std::vector<double> cpu;
  for (const Segment& seg : segments) {
    const double done = static_cast<double>(seg.latency_ms.size());
    tput.push_back(done / seg.seconds);
    p50.push_back(quantile(seg.latency_ms, 0.50));
    p99.push_back(quantile(seg.latency_ms, 0.99));
    cpu.push_back(seg.cpu_ms / std::max(done, 1.0));
  }
  m.set("throughput_per_s", quantile(tput, 0.5), "1/s");
  m.set("latency_p50_ms", quantile(p50, 0.5), "ms");
  m.set("latency_p99_ms", quantile(p99, 0.5), "ms");
  m.set("cpu_ms_per_op", quantile(cpu, 0.5), "ms");
}

long segment_count(double seconds) {
  return std::max(1L, std::lround(seconds / kSegmentSeconds));
}

std::uint64_t workload_seed(const Config& cfg) {
  std::uint64_t h = 1469598103934665603ULL;  // FNV-1a over the workload name
  for (const char c : cfg.workload) h = (h ^ static_cast<unsigned char>(c)) * 1099511628211ULL;
  return h ^ (cfg.seed * 0x9e3779b97f4a7c15ULL);
}

// --- Inputs ---------------------------------------------------------------

enum class Verb : std::uint8_t { kLoad, kSolve };

/// One distinct request of a workload and what its answer must be.
struct Request {
  std::string payload;
  Verb verb = Verb::kSolve;
  const Instance* instance = nullptr;
  const Answer* answer = nullptr;  // SOLVE only
  std::string label;               // objective, for failure messages
};

/// A workload's request pool. A unit is `unit_size` consecutive requests
/// one connection sends back to back (a fleet session is a unit of 9).
struct Plan {
  std::vector<Request> requests;
  std::size_t unit_size = 1;
  bool random_units = false;  // else a cursor shared by both connections
  [[nodiscard]] std::size_t units() const { return requests.size() / unit_size; }
};

struct Inputs {
  std::vector<Instance> instances;
  std::vector<Query> queries;  // library_kernel: queries[i] is instance i
  std::vector<Answer> answers;
  Plan plan;
  std::string pack_path;  // serve_warm dataset
};

const Answer& answer_for(const Inputs& in, std::size_t instance, const std::string& objective) {
  for (std::size_t q = 0; q < in.queries.size(); ++q) {
    if (in.queries[q].instance == instance && in.queries[q].objective == objective) {
      return in.answers[q];
    }
  }
  throw std::logic_error("no reference for " + objective);
}

int oracle_threads() {
  return static_cast<int>(std::clamp(std::thread::hardware_concurrency(), 1U, 3U));
}

Inputs make_inputs(const Config& cfg) {
  Inputs in;
  mcr::Prng rng(workload_seed(cfg));
  const auto add_queries = [&](const std::vector<std::pair<std::string, std::string>>& kinds) {
    for (std::size_t i = 0; i < in.instances.size(); ++i) {
      for (const auto& [objective, algo] : kinds) in.queries.push_back({i, objective, algo});
    }
    in.answers = oracle(in.instances, in.queries, oracle_threads());
  };
  if (cfg.workload == "serve_warm") {
    in.instances = generate({256, 1024, 10}, 64, rng, true);
    add_queries({{"min_mean", "howard"}, {"min_ratio", "howard_ratio"}});
    for (std::size_t q = 0; q < in.queries.size(); ++q) {
      const Instance& inst = in.instances[in.queries[q].instance];
      in.plan.requests.push_back({solve_fp_payload(inst, in.queries[q].objective), Verb::kSolve,
                                  &inst, &in.answers[q], in.queries[q].objective});
    }
    in.plan.random_units = true;
    // The dataset pack is attached at every start (setup_s) but never solved.
    const mcr::gen::SprandConfig big{.n = 65536, .m = 262144, .seed = rng.fork_seed()};
    in.pack_path = "serve_warm.mcrpack";
    (void)mcr::store::write_pack(in.pack_path, mcr::gen::sprand(big));
  } else if (cfg.workload == "serve_cold") {
    in.instances = generate({512, 2048, 1}, kColdPool, rng, true);
    add_queries({{"min_mean", "howard"}});
    for (std::size_t i = 0; i < in.instances.size(); ++i) {
      in.plan.requests.push_back({solve_dimacs_payload(in.instances[i], "min_mean"),
                                  Verb::kSolve, &in.instances[i], &in.answers[i], "min_mean"});
    }
  } else if (cfg.workload == "fleet_load_solve") {
    in.instances = generate({512, 2048, 10}, kColdPool, rng, true);
    const std::vector<std::string> objectives = {"min_mean", "max_mean", "min_ratio",
                                                 "max_ratio"};
    add_queries({{"min_mean", "howard"},
                 {"max_mean", "howard"},
                 {"min_ratio", "howard_ratio"},
                 {"max_ratio", "howard_ratio"}});
    in.plan.unit_size = 9;
    for (std::size_t i = 0; i < in.instances.size(); ++i) {
      const Instance& inst = in.instances[i];
      in.plan.requests.push_back({load_payload(inst), Verb::kLoad, &inst, nullptr, "load"});
      for (int pass = 0; pass < 2; ++pass) {  // 4 misses, then the same 4 as hits
        for (const std::string& objective : objectives) {
          in.plan.requests.push_back({solve_fp_payload(inst, objective), Verb::kSolve, &inst,
                                      &answer_for(in, i, objective), objective});
        }
      }
    }
  } else {
    // DIMACS text is only needed by the traced replay.
    in.instances = generate({1024, 4096, 1}, kLibraryPool, rng, cfg.traced);
    std::vector<Instance> ratio = generate({1024, 4096, 10}, kLibraryPool, rng, cfg.traced);
    std::move(ratio.begin(), ratio.end(), std::back_inserter(in.instances));
    for (std::size_t i = 0; i < in.instances.size(); ++i) {
      const bool is_ratio = i >= kLibraryPool;
      in.queries.push_back(
          {i, is_ratio ? "min_ratio" : "min_mean", is_ratio ? "yto_ratio" : "yto"});
    }
    in.answers = oracle(in.instances, in.queries, oracle_threads());
  }
  return in;
}

/// Flat arc arrays, reused between builds.
struct ArcArrays {
  std::vector<mcr::NodeId> src;
  std::vector<mcr::NodeId> dst;
  std::vector<std::int64_t> weight;
  std::vector<std::int64_t> transit;
};

/// Milliseconds to construct the instance's Graph from its arc arrays.
/// The arrays are first copied into `arcs`, untimed, so they are in cache
/// as right after generation: timing the build straight from the pool
/// measured how fast the host streamed 50 MB from memory, which doubled
/// from run to run.
double time_build(const Instance& in, ArcArrays& arcs) {
  const mcr::Graph& g = *in.graph;
  arcs.src.assign(g.srcs().begin(), g.srcs().end());
  arcs.dst.assign(g.dsts().begin(), g.dsts().end());
  arcs.weight.assign(g.weights().begin(), g.weights().end());
  arcs.transit.assign(g.transits().begin(), g.transits().end());
  const auto t0 = Clock::now();
  const mcr::Graph built(g.num_nodes(), arcs.src, arcs.dst, arcs.weight, arcs.transit);
  return ms_between(t0, Clock::now());
}

// --- Service workloads ----------------------------------------------------

/// The running daemons of one workload; workers first, router last.
struct Topology {
  std::vector<std::unique_ptr<Process>> procs;
  std::vector<std::string> worker_sockets;
  std::vector<std::string> worker_logs;  // --log-json request logs
  std::string endpoint;
  bool has_router = false;

  void stop() {
    for (auto it = procs.rbegin(); it != procs.rend(); ++it) (*it)->stop();
    procs.clear();
  }
  ~Topology() { stop(); }
};

/// Starts the workload's daemons and returns once they serve: every
/// socket answers PING, serve_warm has LOADed and warmed its keys, and
/// the router's HEALTH reports all backends up. Checks every setup answer.
std::unique_ptr<Topology> start_topology(const Config& cfg, const Inputs& in, bool traced,
                                         Failures& failures) {
  auto topo = std::make_unique<Topology>();
  const int workers = cfg.workload == "fleet_load_solve" ? 3 : 1;
  for (int w = 0; w < workers; ++w) {
    const std::string sock = "w" + std::to_string(w) + ".sock";
    const std::string log = "w" + std::to_string(w) + ".jsonl";
    std::filesystem::remove(log);
    std::vector<std::string> argv = {cfg.serve_bin, "--socket", sock, "--threads", "1",
                                     "--flight-dump", "none"};
    if (!in.pack_path.empty()) argv.insert(argv.end(), {"--dataset", in.pack_path});
    if (traced) argv.insert(argv.end(), {"--log-json", log});
    topo->procs.push_back(std::make_unique<Process>(argv, "w" + std::to_string(w) + ".log"));
    topo->worker_sockets.push_back(sock);
    topo->worker_logs.push_back(log);
  }
  for (const std::string& sock : topo->worker_sockets) {
    (void)connect_when_ready(sock, kReadyTimeout);
  }
  topo->endpoint = topo->worker_sockets.front();
  if (workers > 1) {
    std::vector<std::string> argv = {cfg.router_bin, "--socket", "router.sock", "--replicas",
                                     "2"};
    for (const std::string& sock : topo->worker_sockets) {
      argv.insert(argv.end(), {"--worker", "unix:" + sock});
    }
    topo->procs.push_back(std::make_unique<Process>(argv, "router.log"));
    topo->endpoint = "router.sock";
    topo->has_router = true;
    mcr::svc::Client router = connect_when_ready(topo->endpoint, kReadyTimeout);
    const double up = router.health().number_or("backends_up", 0);
    if (up != workers) {
      throw std::runtime_error("router reports " + fmt(up) + " backends up");
    }
  }
  if (cfg.workload == "serve_warm") {
    mcr::svc::Client client = mcr::svc::Client::connect_unix(topo->endpoint);
    for (const Instance& inst : in.instances) {
      if (!load_matches(client.request_raw(load_payload(inst)), inst.fingerprint)) {
        failures.add("setup LOAD of the instance with seed " + std::to_string(inst.seed));
      }
    }
    for (const Request& r : in.plan.requests) {
      bool cached = false;
      if (!solve_matches(client.request_raw(r.payload), *r.answer, &cached)) {
        failures.add("setup SOLVE " + r.label + " of the instance with seed " +
                     std::to_string(r.instance->seed));
      }
    }
  }
  return topo;
}

struct Sample {
  Clock::time_point start;
  Clock::time_point end;
  std::uint32_t request = 0;
  std::uint32_t seq = 0;
  std::uint8_t conn = 0;
  bool ok = false;
  bool cached = false;
};

std::string trace_id(const Sample& s) {
  return "e2e" + std::to_string(s.conn) + "-" + std::to_string(s.seq);
}

/// What one client connection keeps across its segments.
struct Connection {
  std::uint8_t id = 0;
  mcr::Prng rng;
  std::uint32_t seq = 0;
  std::vector<Sample> samples;
};

/// One closed-loop connection for one segment: sends whole units until
/// `until`, each request exactly once (no retries), checking every answer.
void drive(const Plan& plan, const std::string& endpoint, Connection& conn,
           std::atomic<std::size_t>& cursor, Clock::time_point until, bool traced,
           Failures& failures) {
  std::optional<mcr::svc::Client> client;
  while (Clock::now() < until) {
    const std::size_t unit =
        plan.random_units
            ? static_cast<std::size_t>(
                  conn.rng.uniform_int(0, static_cast<std::int64_t>(plan.units()) - 1))
            : cursor.fetch_add(1) % plan.units();
    for (std::size_t k = 0; k < plan.unit_size; ++k) {
      const std::size_t idx = unit * plan.unit_size + k;
      const Request& r = plan.requests[idx];
      Sample s;
      s.request = static_cast<std::uint32_t>(idx);
      s.seq = conn.seq++;
      s.conn = conn.id;
      std::string response;
      std::string error;
      s.start = Clock::now();
      try {
        if (!client) client.emplace(mcr::svc::Client::connect_unix(endpoint));
        if (traced) client->set_trace_id(trace_id(s));
        response = client->request_raw(r.payload);
      } catch (const std::exception& e) {
        error = e.what();
        client.reset();  // a broken connection is reopened for the next request
      }
      s.end = Clock::now();
      s.ok = error.empty() && (r.verb == Verb::kLoad
                                   ? load_matches(response, r.instance->fingerprint)
                                   : solve_matches(response, *r.answer, &s.cached));
      if (!s.ok) {
        failures.add((r.verb == Verb::kLoad ? "LOAD" : "SOLVE " + r.label) +
                     " of the instance with seed " + std::to_string(r.instance->seed) + ": " +
                     (error.empty() ? response.substr(0, 200) : error));
      }
      conn.samples.push_back(s);
    }
  }
}

/// STATS counters summed over `sockets`.
StatsSnapshot stats_sum(const std::vector<std::string>& sockets) {
  StatsSnapshot sum;
  for (const std::string& sock : sockets) {
    mcr::svc::Client client = mcr::svc::Client::connect_unix(sock);
    const StatsSnapshot s = read_stats(client);
    for (const auto& [k, v] : s.counters) sum.counters[k] += v;
    for (const auto& [k, v] : s.histograms) {
      sum.histograms[k].first += v.first;
      sum.histograms[k].second += v.second;
    }
  }
  return sum;
}

StatsSnapshot delta(const StatsSnapshot& after, const StatsSnapshot& before) {
  StatsSnapshot d = after;
  for (auto& [k, v] : d.counters) v -= before.counter(k);
  for (auto& [k, v] : d.histograms) {
    if (const auto it = before.histograms.find(k); it != before.histograms.end()) {
      v.first -= it->second.first;
      v.second -= it->second.second;
    }
  }
  return d;
}

/// Everything one loaded phase against one topology measured.
struct Phase {
  double setup_s = 0;
  Clock::time_point begin;  // measured phase
  Clock::time_point end;
  std::vector<Sample> samples;
  double worker_cpu_ms = 0;  // measured phase
  double router_cpu_ms = 0;
  struct Bounds {
    Clock::time_point begin;
    Clock::time_point end;
    double cpu_ms = 0;  // workers and router
  };
  std::vector<Bounds> segments;
  double client_cpu_s = 0;
  double rss_mb = 0;
  StatsSnapshot workers;  // deltas over warmup + measured
  StatsSnapshot router;
  std::vector<std::string> logs;

  [[nodiscard]] double seconds() const { return ms_between(begin, end) / 1000.0; }
  [[nodiscard]] bool measured(const Sample& s) const {
    return s.start >= begin && s.end <= end;
  }
  [[nodiscard]] double completed() const {
    return static_cast<double>(std::count_if(samples.begin(), samples.end(), [&](const Sample& s) {
      return s.ok && measured(s);
    }));
  }
};

Phase run_service_phase(const Config& cfg, const Inputs& in, double seconds, int setup_reps,
                        bool traced, Failures& failures) {
  Phase ph;
  std::unique_ptr<Topology> topo;
  std::vector<double> setups;
  for (int rep = 0; rep < setup_reps; ++rep) {
    topo.reset();  // stops the previous cold start
    const auto t0 = Clock::now();
    topo = start_topology(cfg, in, traced, failures);
    setups.push_back(ms_between(t0, Clock::now()) / 1000.0);
  }
  ph.setup_s = quantile(setups, 0.5);
  const std::vector<std::string> router_sock =
      topo->has_router ? std::vector<std::string>{topo->endpoint} : std::vector<std::string>{};
  const StatsSnapshot workers_before = stats_sum(topo->worker_sockets);
  const StatsSnapshot router_before = stats_sum(router_sock);
  const auto cpu = [&](bool router) {
    double ms = 0;
    for (std::size_t p = 0; p < topo->procs.size(); ++p) {
      const bool is_router = topo->has_router && p + 1 == topo->procs.size();
      if (is_router == router) ms += cpu_ms(topo->procs[p]->pid());
    }
    return ms;
  };

  std::atomic<std::size_t> cursor{0};  // carries over from warm-up
  std::vector<Connection> conns(kConnections);
  for (int c = 0; c < kConnections; ++c) {
    conns[c].id = static_cast<std::uint8_t>(c);
    conns[c].rng = mcr::Prng(workload_seed(cfg) + 1 + static_cast<std::uint64_t>(c));
  }
  const auto segment = [&](double s) {
    const auto until = Clock::now() + seconds_to_duration(s);
    std::vector<std::jthread> clients;
    for (Connection& conn : conns) {
      clients.emplace_back(
          [&] { drive(in.plan, topo->endpoint, conn, cursor, until, traced, failures); });
    }
  };
  if (cfg.warmup > 0) segment(cfg.warmup);
  const double workers0 = cpu(false);
  const double router0 = cpu(true);
  const double client0 = process_cpu_s();
  ph.begin = Clock::now();
  const long segments = segment_count(seconds);
  for (long k = 0; k < segments; ++k) {
    const double seg_cpu0 = cpu(false) + cpu(true);
    const auto seg_begin = Clock::now();
    segment(seconds / static_cast<double>(segments));
    ph.segments.push_back({seg_begin, Clock::now(), cpu(false) + cpu(true) - seg_cpu0});
  }
  ph.end = Clock::now();
  ph.worker_cpu_ms = cpu(false) - workers0;
  ph.router_cpu_ms = cpu(true) - router0;
  ph.client_cpu_s = process_cpu_s() - client0;

  for (const Connection& conn : conns) {
    ph.samples.insert(ph.samples.end(), conn.samples.begin(), conn.samples.end());
  }
  ph.workers = delta(stats_sum(topo->worker_sockets), workers_before);
  ph.router = delta(stats_sum(router_sock), router_before);
  for (const auto& p : topo->procs) ph.rss_mb += peak_rss_mb(p->pid());
  topo->stop();  // flushes and closes the request logs
  ph.logs = topo->worker_logs;
  return ph;
}

/// The exact hit ratio each service workload must show, and zero router failures.
bool check_invariants(const Config& cfg, const Phase& ph) {
  const double hits = ph.workers.counter("mcr_cache_hits_total");
  const double misses = ph.workers.counter("mcr_cache_misses_total");
  const double joins = ph.workers.counter("mcr_singleflight_joins_total");
  bool ok = joins == 0;
  if (cfg.workload == "serve_warm") ok = ok && misses == 0 && hits > 0;
  if (cfg.workload == "serve_cold") ok = ok && hits == 0 && misses > 0;
  if (cfg.workload == "fleet_load_solve") ok = ok && hits == misses && hits > 0;
  if (!ok) {
    std::cerr << "mcr_e2e: cache invariant broken: hits " << hits << " misses " << misses
              << " joins " << joins << "\n";
  }
  for (const char* c : {"mcr_router_failovers_total", "mcr_router_no_replica_total",
                        "mcr_router_partial_responses_total"}) {
    if (ph.router.counter(c) != 0) {
      std::cerr << "mcr_e2e: router counter " << c << " = " << ph.router.counter(c) << "\n";
      ok = false;
    }
  }
  return ok;
}

void service_end_to_end(const Phase& ph, Metrics& m) {
  std::vector<Segment> segments;
  for (const Phase::Bounds& b : ph.segments) {
    Segment seg{ms_between(b.begin, b.end) / 1000.0, {}, b.cpu_ms};
    for (const Sample& s : ph.samples) {
      if (s.ok && s.start >= b.begin && s.end <= b.end) {
        seg.latency_ms.push_back(ms_between(s.start, s.end));
      }
    }
    segments.push_back(std::move(seg));
  }
  report_end_to_end(segments, m);
  m.set("peak_rss_mb", ph.rss_mb, "MB");
  m.set("setup_s", ph.setup_s, "s");
}

struct LogRow {
  std::string verb;
  double total_ms = 0;
  double queue_ms = -1;
  double solve_ms = -1;
};

std::map<std::string, std::vector<LogRow>> read_request_logs(const std::vector<std::string>& logs) {
  std::map<std::string, std::vector<LogRow>> rows;
  for (const std::string& path : logs) {
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
      const mcr::json::Value v = mcr::json::parse(line);
      LogRow row{v.string_or("verb", ""), v.number_or("total_ms", 0), v.number_or("queue_ms", -1),
                 v.number_or("solve_ms", -1)};
      if (row.verb == "SOLVE" || row.verb == "LOAD") {
        rows[v.string_or("trace_id", "")].push_back(std::move(row));
      }
    }
  }
  return rows;
}

/// Per-layer metrics of a traced service phase: client spans joined by
/// trace id with the workers' request-log rows, STATS deltas, /proc CPU.
/// Appends up to 4000 client spans to `client_trace` as trace events.
void service_layers(const Inputs& in, const Phase& ph, Metrics& m, std::string& client_trace) {
  const auto rows = read_request_logs(ph.logs);
  std::vector<double> gap, hop, total, queue, dispatch, outside, load, miss, hit;
  std::size_t written = 0;
  for (const Sample& s : ph.samples) {
    if (!ph.measured(s) || !s.ok) continue;
    const double client_ms = ms_between(s.start, s.end);
    const Request& r = in.plan.requests[s.request];
    (r.verb == Verb::kLoad ? load : s.cached ? hit : miss).push_back(client_ms);
    const auto it = rows.find(trace_id(s));
    if (it == rows.end()) continue;
    for (const LogRow& row : it->second) {
      total.push_back(row.total_ms);
      if (row.queue_ms >= 0) queue.push_back(row.queue_ms);
      if (row.solve_ms >= 0) dispatch.push_back(row.solve_ms);
      outside.push_back(row.total_ms - std::max(row.queue_ms, 0.0) - std::max(row.solve_ms, 0.0));
    }
    if (it->second.size() == 1) {  // LOAD fan-out rows have no single server time
      (in.plan.unit_size > 1 ? hop : gap).push_back(client_ms - it->second.front().total_ms);
    }
    if (written++ < 4000) {
      client_trace += ",{\"name\":\"" + std::string(r.verb == Verb::kLoad ? "LOAD" : "SOLVE") +
                      "\",\"cat\":\"client\",\"ph\":\"X\",\"pid\":2,\"tid\":" +
                      std::to_string(s.conn) + ",\"ts\":" +
                      fmt(ms_between(ph.begin, s.start) * 1000.0) +
                      ",\"dur\":" + fmt(client_ms * 1000.0) + ",\"args\":{\"trace_id\":\"" +
                      trace_id(s) + "\",\"server_total_ms\":" +
                      fmt(it->second.front().total_ms) + "}}";
    }
  }
  const double done = std::max(ph.completed(), 1.0);
  m.set("svc.transport.gap_ms_p50", quantile(gap, 0.5), "ms");
  m.set("svc.server.total_ms_p50", quantile(total, 0.5), "ms");
  m.set("svc.server.total_ms_p99", quantile(total, 0.99), "ms");
  m.set("svc.server.queue_wait_ms_p50", quantile(queue, 0.5), "ms");
  m.set("svc.server.queue_wait_ms_p99", quantile(queue, 0.99), "ms");
  m.set("svc.server.dispatch_ms_p50", quantile(dispatch, 0.5), "ms");
  const auto batch = ph.workers.histograms.find("mcr_batch_size");
  m.set("svc.server.batch_size_mean",
        batch == ph.workers.histograms.end() || batch->second.first == 0
            ? 0.0
            : batch->second.second / batch->second.first,
        "jobs");
  // Completed by replay_layers, once the replay has timed the in-process layers.
  m.set("svc.server.unattributed_ms_p50", quantile(outside, 0.5), "ms");
  m.set("svc.server.cpu_ms_per_op", ph.worker_cpu_ms / done, "ms");
  const double hits = ph.workers.counter("mcr_cache_hits_total");
  const double misses = ph.workers.counter("mcr_cache_misses_total");
  const double joins = ph.workers.counter("mcr_singleflight_joins_total");
  m.set("svc.cache.hits", hits, "count");
  m.set("svc.cache.misses", misses, "count");
  m.set("svc.cache.joins", joins, "count");
  m.set("svc.cache.hit_ratio", hits / std::max(hits + misses + joins, 1.0), "ratio");
  m.set("svc.graph_registry.loads", ph.workers.counter("mcr_graph_loads_total"), "count");
  m.set("svc.graph_registry.evictions", ph.workers.counter("mcr_graph_evictions_total"),
        "count");
  m.set("svc.router.hop_ms_p50", quantile(hop, 0.5), "ms");
  m.set("svc.router.hop_ms_p99", quantile(hop, 0.99), "ms");
  m.set("svc.router.cpu_ms_per_op", ph.router_cpu_ms / done, "ms");
  m.set("svc.router.failovers", ph.router.counter("mcr_router_failovers_total"), "count");
  m.set("svc.router.no_replica", ph.router.counter("mcr_router_no_replica_total"), "count");
  m.set("svc.router.partial_responses", ph.router.counter("mcr_router_partial_responses_total"),
        "count");
  m.set("svc.client.load_ms_p50", quantile(load, 0.5), "ms");
  m.set("svc.client.solve_miss_ms_p50", quantile(miss, 0.5), "ms");
  m.set("svc.client.solve_hit_ms_p50", quantile(hit, 0.5), "ms");
  m.set("bench.client_cpu_util", ph.client_cpu_s / (ph.seconds() * kConnections), "fraction");
}

/// Layers a library_kernel request never crosses: no client, server or router.
void library_bypassed_layers(Metrics& m) {
  for (const char* name :
       {"svc.transport.gap_ms_p50", "svc.server.total_ms_p50", "svc.server.total_ms_p99",
        "svc.server.queue_wait_ms_p50", "svc.server.queue_wait_ms_p99",
        "svc.server.dispatch_ms_p50", "svc.server.unattributed_ms_p50",
        "svc.server.cpu_ms_per_op", "svc.router.hop_ms_p50", "svc.router.hop_ms_p99",
        "svc.router.cpu_ms_per_op", "svc.client.load_ms_p50", "svc.client.solve_miss_ms_p50",
        "svc.client.solve_hit_ms_p50"}) {
    m.set(name, 0.0, "ms");
  }
  m.set("svc.server.batch_size_mean", 0.0, "jobs");
  for (const char* name : {"svc.cache.hits", "svc.cache.misses", "svc.cache.joins",
                           "svc.graph_registry.loads", "svc.graph_registry.evictions",
                           "svc.router.failovers", "svc.router.no_replica",
                           "svc.router.partial_responses"}) {
    m.set(name, 0.0, "count");
  }
  m.set("svc.cache.hit_ratio", 0.0, "ratio");
}

// --- library_kernel -------------------------------------------------------

struct LibraryPhase {
  double setup_s = 0;
  std::vector<double> build_ms;  // one per Graph construction
  std::vector<Segment> segments;
  double seconds = 0;
  double rss_mb = 0;
  std::uint64_t attempted = 0;

  [[nodiscard]] double completed() const {
    double n = 0;
    for (const Segment& seg : segments) n += static_cast<double>(seg.latency_ms.size());
    return n;
  }
  [[nodiscard]] double cpu_ms() const {
    double ms = 0;
    for (const Segment& seg : segments) ms += seg.cpu_ms;
    return ms;
  }
};

/// Round-robin over the (instance, solver) pairs on this thread. Each
/// pair's answer was certified by the oracle; every solve must equal it.
LibraryPhase run_library_phase(const Config& cfg, const Inputs& in, double seconds,
                               int setup_reps, bool traced, Failures& failures) {
  LibraryPhase ph;
  std::vector<double> setups;
  ArcArrays arcs;
  for (int rep = 0; rep < setup_reps; ++rep) {
    double ms = 0;
    for (const Instance& inst : in.instances) {
      ph.build_ms.push_back(time_build(inst, arcs));
      ms += ph.build_ms.back();
    }
    setups.push_back(ms / 1000.0);
  }
  ph.setup_s = quantile(setups, 0.5);
  const auto begin = Clock::now() + seconds_to_duration(cfg.warmup);
  const auto end = begin + seconds_to_duration(seconds);
  ph.segments.resize(static_cast<std::size_t>(segment_count(seconds)));
  const auto seg_width = (end - begin) / static_cast<Clock::rep>(ph.segments.size());
  for (Segment& seg : ph.segments) seg.seconds = std::chrono::duration<double>(seg_width).count();
  bool measuring = false;
  for (std::size_t i = 0;; i = (i + 1) % in.instances.size()) {
    const auto start = Clock::now();
    if (start >= end) break;
    if (!measuring && start >= begin) {
      measuring = true;
      if (!reset_peak_rss()) std::cerr << "mcr_e2e: cannot reset VmHWM\n";
    }
    const Query& q = in.queries[i];
    std::optional<mcr::obs::TraceRecorder> recorder;  // one per solve bounds its memory
    if (traced) recorder.emplace();
    const double cpu0 = thread_cpu_s();
    const mcr::CycleResult r =
        solve(*in.instances[i].graph, q.objective, q.algo,
              {.num_threads = 1, .trace = recorder ? &*recorder : nullptr});
    const double cpu = thread_cpu_s() - cpu0;
    const auto done = Clock::now();
    ++ph.attempted;
    const Answer& ref = in.answers[i];
    if (r.value != ref.result.value || r.cycle != ref.result.cycle) {
      failures.add(q.algo + " " + q.objective + " of the instance with seed " +
                   std::to_string(in.instances[i].seed));
    } else if (measuring && done < end) {
      Segment& seg = ph.segments[std::min(ph.segments.size() - 1,
                                          static_cast<std::size_t>((done - begin) / seg_width))];
      seg.latency_ms.push_back(ms_between(start, done));
      seg.cpu_ms += cpu * 1000.0;
    }
  }
  ph.seconds = seconds;
  ph.rss_mb = peak_rss_mb(0);
  return ph;
}

// --- Traced replay metrics --------------------------------------------------

void replay_layers(const Config& cfg, const Inputs& in, Metrics& m, std::string& trace_json) {
  mcr::Prng rng(workload_seed(cfg) ^ 0x5eedULL);
  const auto pick = [&](std::size_t n) {
    return static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
  };
  std::vector<std::string> owned;  // library_kernel payloads
  std::vector<std::string_view> payloads;
  ReplayOptions options;
  if (cfg.workload == "library_kernel") {
    while (owned.size() < kReplayPayloads) {
      const Query& q = in.queries[pick(in.queries.size())];
      owned.push_back(R"({"verb":"SOLVE","dimacs":")" +
                      mcr::svc::json_escape(in.instances[q.instance].dimacs) +
                      R"(","objective":")" + q.objective + R"(","algo":")" + q.algo + "\"}");
    }
    payloads.assign(owned.begin(), owned.end());
    options.fresh_cache = true;
  } else {
    while (payloads.size() + in.plan.unit_size <= kReplayPayloads) {
      const std::size_t unit = pick(in.plan.units());
      for (std::size_t k = 0; k < in.plan.unit_size; ++k) {
        payloads.push_back(in.plan.requests[unit * in.plan.unit_size + k].payload);
      }
    }
  }
  if (cfg.workload == "serve_warm") {
    for (const Instance& inst : in.instances) options.resident.push_back(&inst);
    for (std::size_t q = 0; q < in.queries.size(); ++q) {
      const Query& query = in.queries[q];
      options.cached.push_back(
          {{in.instances[query.instance].fingerprint, query.objective, query.algo},
           in.answers[q].result});
    }
  }
  const ReplayResult r = replay(payloads, options);
  const auto p50 = [&](const char* layer) {
    const auto it = r.self_us.find(layer);
    return it == r.self_us.end() ? 0.0 : quantile(it->second, 0.5);
  };
  m.set("support.json.parse_us_p50", p50("support.json.parse"), "us");
  m.set("graph.io.read_dimacs_us_p50", p50("graph.io.read_dimacs"), "us");
  m.set("graph.fingerprint.us_p50", p50("graph.fingerprint"), "us");
  m.set("svc.graph_registry.add_us_p50", p50("svc.graph_registry.add"), "us");
  m.set("svc.cache.acquire_us_p50", p50("svc.cache.acquire"), "us");
  m.set("svc.result_json.us_p50", p50("svc.result_json"), "us");
  m.set("svc.protocol.encode_frame_us_p50", p50("svc.protocol.encode_frame"), "us");
  m.set("obs.metrics.finish_request_us_p50", quantile(replay_finish_request(2, 20000), 0.5),
        "us");
  for (const std::string& solver : kSolvers) {
    for (const char* phase : {"scc_decompose", "component", "witness_extract", "merge"}) {
      double v = 0;
      if (const auto s = r.phase_ms.find(solver); s != r.phase_ms.end()) {
        v = quantile(s->second.at(phase), 0.5);
      }
      m.set(std::string("core.driver.") + phase + "_ms_p50." + solver, v, "ms");
    }
    for (const char* op : {"iterations", "arc_scans", "relaxations", "heap"}) {
      double v = 0;
      if (const auto s = r.ops_per_solve.find(solver); s != r.ops_per_solve.end()) {
        v = s->second.at(op);
      }
      m.set(std::string("algo.ops.") + op + "." + solver, v, "count");
    }
  }
  // The server's time outside queue and solve, minus what the replayed
  // layers account for on the same request mix.
  if (cfg.workload != "library_kernel") {
    const std::string name = "svc.server.unattributed_ms_p50";
    m.set(name, m.value(name) - quantile(r.outside_solve_ms, 0.5), "ms");
  }
  trace_json = r.chrome_trace;
}

/// Graph construction from arc arrays, and PackReader::open of the dataset.
void store_layers(const Inputs& in, std::vector<double> builds, Metrics& m) {
  ArcArrays arcs;
  for (std::size_t i = 0; builds.empty() && i < std::min<std::size_t>(64, in.instances.size());
       ++i) {
    builds.push_back(time_build(in.instances[i], arcs));
  }
  m.set("graph.builder.build_ms_p50", quantile(builds, 0.5), "ms");
  std::vector<double> open;
  for (int rep = 0; !in.pack_path.empty() && rep < 5; ++rep) {
    const auto t0 = Clock::now();
    (void)mcr::store::PackReader::open(in.pack_path);
    open.push_back(ms_between(t0, Clock::now()));
  }
  m.set("store.pack_reader.open_ms", quantile(open, 0.5), "ms");
}

// --- Output ---------------------------------------------------------------

/// Declared (name, unit) pairs of one metric class in BENCHMARK.json.
std::map<std::string, std::string> declared(const std::string& path, bool per_layer) {
  std::map<std::string, std::string> out;
  const mcr::json::Value doc = mcr::json::parse_file(path);
  for (const mcr::json::Value& m : doc.at(per_layer ? "per_layer" : "end_to_end").as_array()) {
    out[m.at("name").as_string()] = m.at("unit").as_string();
  }
  return out;
}

struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  Metrics metrics;
};

std::string result_json(const Outcome& o) {
  std::string out = std::string("{\"correct\":") + (o.correct ? "true" : "false") +
                    ",\"attempted\":" + std::to_string(o.attempted) +
                    ",\"failed\":" + std::to_string(o.failed) + ",\"metrics\":{";
  bool first = true;
  for (const auto& e : o.metrics.list()) {
    if (!first) out += ',';
    first = false;
    out += "\"" + e.name + "\":{\"value\":" + fmt(e.value) + ",\"unit\":\"" + e.unit + "\"}";
  }
  return out + "}}";
}

Outcome run_workload(const Config& cfg) {
  Failures failures;
  Outcome o;
  const Inputs in = make_inputs(cfg);
  // A traced run splits its time between an untraced and a traced phase,
  // so the tracing overhead is measured within one run.
  const double seconds = cfg.traced ? cfg.seconds / 2 : cfg.seconds;
  const int reps = cfg.traced ? 1 : cfg.setup_reps;
  std::string trace;
  if (cfg.workload == "library_kernel") {
    const LibraryPhase plain = run_library_phase(cfg, in, seconds, reps, false, failures);
    o.attempted = plain.attempted;
    if (!cfg.traced) {
      report_end_to_end(plain.segments, o.metrics);
      o.metrics.set("peak_rss_mb", plain.rss_mb, "MB");
      o.metrics.set("setup_s", plain.setup_s, "s");
    } else {
      const LibraryPhase traced = run_library_phase(cfg, in, seconds, reps, true, failures);
      o.attempted += traced.attempted;
      library_bypassed_layers(o.metrics);
      o.metrics.set("bench.client_cpu_util", traced.cpu_ms() / 1000.0 / traced.seconds,
                    "fraction");
      o.metrics.set("bench.trace_overhead_pct",
                    100.0 * (plain.completed() - traced.completed()) /
                        std::max(plain.completed(), 1.0),
                    "%");
      replay_layers(cfg, in, o.metrics, trace);
      store_layers(in, plain.build_ms, o.metrics);
    }
  } else {
    const Phase plain = run_service_phase(cfg, in, seconds, reps, false, failures);
    o.correct = check_invariants(cfg, plain);
    o.attempted = plain.samples.size();
    if (!cfg.traced) {
      service_end_to_end(plain, o.metrics);
    } else {
      const Phase traced = run_service_phase(cfg, in, seconds, reps, true, failures);
      o.correct = check_invariants(cfg, traced) && o.correct;
      o.attempted += traced.samples.size();
      std::string client_trace;
      service_layers(in, traced, o.metrics, client_trace);
      const double plain_rate = plain.completed() / plain.seconds();
      o.metrics.set("bench.trace_overhead_pct",
                    100.0 * (plain_rate - traced.completed() / traced.seconds()) /
                        std::max(plain_rate, 1e-9),
                    "%");
      replay_layers(cfg, in, o.metrics, trace);
      store_layers(in, {}, o.metrics);
      // Client spans join the replay's trace as a second process.
      trace.resize(trace.rfind(']'));
      trace += client_trace +
               ",{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"args\":{\"name\":"
               "\"in-process replay\"}},{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":2,"
               "\"args\":{\"name\":\"client (traced phase)\"}}]}";
    }
  }
  if (cfg.traced) std::ofstream("trace_" + cfg.workload + ".json") << trace;
  o.failed = failures.count();
  o.correct = o.correct && o.failed == 0;

  // The metric set must be exactly the one BENCHMARK.json declares.
  const auto want = declared(cfg.benchmark_json, cfg.traced);
  std::set<std::string> seen;
  for (const auto& e : o.metrics.list()) {
    seen.insert(e.name);
    const auto it = want.find(e.name);
    if (it == want.end() || it->second != e.unit || !std::isfinite(e.value)) {
      std::cerr << "mcr_e2e: metric " << e.name << " (" << e.unit
                << ") is undeclared, has another unit, or is not finite\n";
      o.correct = false;
    }
  }
  for (const auto& [name, unit] : want) {
    if (seen.count(name) == 0) {
      std::cerr << "mcr_e2e: declared metric " << name << " was not measured\n";
      o.correct = false;
    }
  }
  return o;
}

int run(const Config& base) {
  const std::vector<std::string> workloads =
      base.workload == "all" ? kWorkloads : std::vector<std::string>{base.workload};
  bool all_correct = true;
  for (const std::string& w : workloads) {
    Config cfg = base;
    cfg.workload = w;
    const Outcome o = run_workload(cfg);
    for (const auto& e : o.metrics.list()) {
      std::cout << w << ' ' << e.name << ' ' << fmt(e.value) << ' ' << e.unit << '\n';
    }
    std::cout << w << " error_rate "
              << fmt(static_cast<double>(o.failed) /
                     static_cast<double>(std::max<std::uint64_t>(o.attempted, 1)))
              << " ratio\n"
              << w << " ops_attempted " << o.attempted << " count\n";
    const std::string json = result_json(o);
    std::ofstream("results_" + w + ".json") << json << '\n';
    std::cout << json << std::endl;
    all_correct = all_correct && o.correct;
  }
  return all_correct ? 0 : 1;
}

}  // namespace
}  // namespace e2e

int main(int argc, char** argv) {
  using namespace e2e;
  try {
    const mcr::cli::Options opt = mcr::cli::parse(argc, argv);
    Config cfg;
    cfg.workload = opt.get("workload");
    if (cfg.workload != "all" &&
        std::find(kWorkloads.begin(), kWorkloads.end(), cfg.workload) == kWorkloads.end()) {
      std::cerr << "mcr_e2e: --workload must be one of serve_warm, serve_cold, "
                   "fleet_load_solve, library_kernel, all\n";
      return 2;
    }
    cfg.seed = static_cast<std::uint64_t>(opt.get_int_in("seed", 1, 0, 1LL << 62));
    cfg.seconds = opt.get_double("seconds", 10.0);
    cfg.warmup = opt.get_double("warmup", 2.0);
    cfg.setup_reps = static_cast<int>(opt.get_int_in("setup-reps", 15, 1, 100));
    cfg.traced = opt.get_int_in("trace", 0, 0, 1) == 1;
    const auto absolute = [&](const char* flag) {
      if (!opt.has(flag)) throw std::invalid_argument(std::string("missing --") + flag);
      return std::filesystem::absolute(opt.get(flag)).string();
    };
    cfg.serve_bin = absolute("serve-bin");
    cfg.router_bin = absolute("router-bin");
    cfg.benchmark_json = absolute("benchmark-json");
    if (cfg.seconds <= 0 || cfg.warmup < 0) {
      throw std::invalid_argument("--seconds must be positive and --warmup non-negative");
    }
    // Daemon sockets, logs and result files live in --out-dir; socket
    // paths stay short because they are relative to it.
    const std::string out_dir = opt.get("out-dir", ".");
    std::filesystem::create_directories(out_dir);
    std::filesystem::current_path(out_dir);
    return run(cfg);
  } catch (const std::exception& e) {
    std::cerr << "mcr_e2e: " << e.what() << "\n";
    return 1;
  }
}
