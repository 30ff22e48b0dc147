// mcr_load — load generator / replay harness for the mcr solve service.
//
//   mcr_load --socket PATH | --port N | --target SPEC [--target SPEC ...]
//            [--rps R | --ramp R1:S1,R2:S2,...]   open-loop offered load
//            [--concurrency K]                    closed-loop workers
//            [--connections N] [--duration S] [--requests N]
//            [--mix solve=90,stats=5,ping=5] [--cold-pct P]
//            [--reload-paths A.mcrpack,B.mcrpack] [--strict]
//            [--graph-n N] [--seed N] [--output PATH] [--version]
//
// Two load models:
//
//  - Open loop (--rps or --ramp): request *arrival times* are drawn
//    from a Poisson process at the offered rate, independent of how
//    fast the server answers. Every worker pulls the next arrival from
//    one shared schedule, sleeps until it, then issues the request —
//    and latency is measured from the *intended* send time, so a
//    stalled server shows up as growing latency instead of silently
//    throttling the measurement (no coordinated omission; the wrk2
//    correction).
//  - Closed loop (--concurrency K, the default): K workers issue
//    requests back-to-back. Measures capacity, not offered-load
//    behaviour; latency is per-round-trip.
//
// Workload shape:
//
//   --mix solve=90,stats=5,ping=5   relative weights per verb
//                    (solve | ping | stats | health | solvers | reload;
//                    reload defaults to weight 0 — give it weight to
//                    exercise dataset hot-swap under load)
//   --reload-paths A,B   RELOAD rotates through these pack paths
//                    round-robin; without it RELOAD is sent bare and
//                    re-attaches the server's current dataset path
//   --cold-pct P     percent of SOLVEs forced cold: each cold request
//                    carries a never-repeated generator seed, so its
//                    fingerprint misses the result cache and the solve
//                    runs for real. Warm SOLVEs rotate a small pool of
//                    fixed seeds (first hit per seed is cold, the rest
//                    replay from cache).
//   --ramp           phases of RPS:SECONDS stepping the offered rate,
//                    e.g. 200:10,500:10,1000:10 for a three-step ramp
//   --target SPEC    endpoint to drive: unix:PATH, HOST:PORT, or PORT.
//                    Repeatable — worker i connects to target i mod N,
//                    so one harness can drive several routers (or a
//                    worker fleet directly, as the control experiment
//                    against the routed path). --socket/--port are
//                    shorthand for a single target.
//
// The end-of-run report prints client-side p50/p95/p99/p99.9 over
// exact latency samples, throughput, a per-code error table, and cache
// hit accounting. --output PATH writes the same as a schema-versioned
// JSON artifact (benchkit conventions: schema_version + build
// provenance + stable key order).
//
// Exit status: 0 = run completed with zero transport errors; 1 = at
// least one transport error (or a fatal setup failure); 2 = usage.
// --strict widens the failure condition: any *service* error (a non-ok
// protocol response) also exits 1, so CI can assert a clean run.
// Idempotent verbs answered with a retryable code (errors.h) are
// resent up to twice before counting as errors (docs/ROBUSTNESS.md,
// "Who resends what"); the retry count is reported so flakiness stays
// visible even when absorbed.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <map>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cli.h"
#include "obs/build_info.h"
#include "support/json.h"
#include "support/prng.h"
#include "svc/client.h"
#include "svc/errors.h"
#include "svc/protocol.h"

namespace {

using mcr::Prng;
using Clock = std::chrono::steady_clock;

struct Phase {
  double rps = 0.0;
  double seconds = 0.0;
};

/// One Poisson arrival schedule shared by every open-loop worker: each
/// next() hands out the next intended send time (seconds from run
/// start), stepping through the ramp phases. Serialized by a mutex —
/// the schedule is consulted once per request, far off the hot path.
class ArrivalSchedule {
 public:
  ArrivalSchedule(std::vector<Phase> phases, std::uint64_t seed)
      : phases_(std::move(phases)), prng_(seed) {}

  std::optional<double> next() {
    std::lock_guard lock(mutex_);
    for (;;) {
      if (phase_ >= phases_.size()) return std::nullopt;
      const Phase& p = phases_[phase_];
      const double end = phase_end();
      if (p.rps <= 0.0) {  // idle phase: nothing arrives, skip to its end
        cursor_ = end;
        begin_ = end;
        ++phase_;
        continue;
      }
      const double gap = -std::log(1.0 - prng_.uniform_real()) / p.rps;
      const double t = cursor_ + gap;
      if (t >= end) {
        cursor_ = end;
        begin_ = end;
        ++phase_;
        continue;
      }
      cursor_ = t;
      return t;
    }
  }

 private:
  [[nodiscard]] double phase_end() const {
    return begin_ + phases_[phase_].seconds;
  }

  std::mutex mutex_;
  std::vector<Phase> phases_;
  Prng prng_;
  std::size_t phase_ = 0;
  double begin_ = 0.0;  // start of the current phase
  double cursor_ = 0.0;
};

struct MixEntry {
  std::string verb;  // solve | ping | stats | health | solvers | reload
  double weight = 0.0;
};

double parse_number(const std::string& text, const std::string& what) {
  try {
    std::size_t used = 0;
    const double v = std::stod(text, &used);
    if (used != text.size()) throw std::invalid_argument(what);
    return v;
  } catch (const std::exception&) {
    throw std::invalid_argument(what + " '" + text + "' is not a number");
  }
}

std::vector<MixEntry> parse_mix(const std::string& spec) {
  std::vector<MixEntry> mix;
  std::stringstream ss(spec);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (item.empty()) continue;
    const auto eq = item.find('=');
    if (eq == std::string::npos) {
      throw std::invalid_argument("--mix entry '" + item +
                                  "' is not verb=weight");
    }
    MixEntry e;
    e.verb = item.substr(0, eq);
    e.weight = parse_number(item.substr(eq + 1), "--mix weight");
    if (e.verb != "solve" && e.verb != "ping" && e.verb != "stats" &&
        e.verb != "health" && e.verb != "solvers" && e.verb != "reload") {
      throw std::invalid_argument(
          "--mix verb '" + e.verb +
          "' unknown (expected solve | ping | stats | health | solvers | "
          "reload)");
    }
    if (e.weight < 0.0) {
      throw std::invalid_argument("--mix weight for '" + e.verb +
                                  "' is negative");
    }
    mix.push_back(std::move(e));
  }
  double total = 0.0;
  for (const MixEntry& e : mix) total += e.weight;
  if (mix.empty() || total <= 0.0) {
    throw std::invalid_argument("--mix has no positive weights");
  }
  return mix;
}

std::vector<Phase> parse_ramp(const std::string& spec) {
  std::vector<Phase> phases;
  std::stringstream ss(spec);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (item.empty()) continue;
    const auto colon = item.find(':');
    if (colon == std::string::npos) {
      throw std::invalid_argument("--ramp entry '" + item +
                                  "' is not RPS:SECONDS");
    }
    Phase p;
    p.rps = parse_number(item.substr(0, colon), "--ramp rps");
    p.seconds = parse_number(item.substr(colon + 1), "--ramp seconds");
    if (p.rps < 0.0 || p.seconds <= 0.0) {
      throw std::invalid_argument("--ramp entry '" + item +
                                  "' needs rps >= 0 and seconds > 0");
    }
    phases.push_back(p);
  }
  if (phases.empty()) throw std::invalid_argument("--ramp is empty");
  return phases;
}

/// What one worker accumulates; merged after the joins, so no sharing.
struct WorkerStats {
  std::vector<double> latencies_ms;  // ok responses only
  std::map<std::string, std::uint64_t> errors;  // protocol code -> count
  std::map<std::string, std::uint64_t> verbs;   // issued, by verb
  std::uint64_t ok = 0;
  std::uint64_t transport_errors = 0;
  std::uint64_t retries = 0;  // retryable-code retries that were issued
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
};

struct LoadConfig {
  /// Endpoints, round-robin by worker index (worker i -> i mod N).
  std::vector<mcr::svc::BackendAddress> targets;
  bool open_loop = false;
  std::vector<Phase> phases;  // open loop
  std::size_t connections = 4;
  double duration_s = 10.0;       // closed loop bound
  std::uint64_t request_cap = 0;  // 0 = unbounded
  std::vector<MixEntry> mix;
  double cold_pct = 0.0;
  std::vector<std::string> reload_paths;  // RELOAD rotation; empty = bare
  bool strict = false;  // service errors also fail the run
  std::int64_t graph_n = 128;
  std::uint64_t seed = 1;
};

mcr::svc::Client connect(const LoadConfig& cfg, std::size_t worker_index) {
  return mcr::svc::Client::connect(cfg.targets[worker_index % cfg.targets.size()]);
}

/// Cold seeds must never repeat across the whole run (any repeat would
/// silently warm the cache), so they come from one process-wide counter
/// well away from the warm pool.
std::atomic<std::uint64_t> g_cold_seed{1u << 20};

/// RELOAD rotates through --reload-paths process-wide, not per worker,
/// so a two-path A,B rotation really alternates generations even when
/// many workers draw the reload verb.
std::atomic<std::uint64_t> g_reload_rr{0};

constexpr std::uint64_t kWarmSeeds = 8;  // warm SOLVE generator pool

std::string solve_payload(std::int64_t graph_n, std::uint64_t seed) {
  return "{\"verb\":\"SOLVE\",\"objective\":\"min_mean\",\"generator\":"
         "{\"family\":\"sprand\",\"n\":" +
         std::to_string(graph_n) + ",\"m\":" + std::to_string(2 * graph_n) +
         ",\"seed\":" + std::to_string(seed) + "}}";
}

/// One request round trip: pick a verb by mix weight, issue it, record
/// the outcome. `intended` is the latency epoch — the Poisson arrival
/// time for open loop, the send time for closed loop.
void issue_one(mcr::svc::Client& client, const LoadConfig& cfg, Prng& prng,
               Clock::time_point intended, WorkerStats& stats) {
  double total = 0.0;
  for (const MixEntry& e : cfg.mix) total += e.weight;
  double pick = prng.uniform_real() * total;
  std::string verb = cfg.mix.back().verb;
  for (const MixEntry& e : cfg.mix) {
    pick -= e.weight;
    if (pick < 0.0) {
      verb = e.verb;
      break;
    }
  }
  std::string payload;
  if (verb == "solve") {
    const bool cold = prng.uniform_real() * 100.0 < cfg.cold_pct;
    const std::uint64_t seed =
        cold ? g_cold_seed.fetch_add(1)
             : 1 + static_cast<std::uint64_t>(
                       prng.uniform_int(0, kWarmSeeds - 1));
    payload = solve_payload(cfg.graph_n, seed);
  } else if (verb == "ping") {
    payload = R"({"verb":"PING"})";
  } else if (verb == "stats") {
    payload = R"({"verb":"STATS"})";
  } else if (verb == "health") {
    payload = R"({"verb":"HEALTH"})";
  } else if (verb == "reload") {
    if (cfg.reload_paths.empty()) {
      payload = R"({"verb":"RELOAD"})";
    } else {
      const std::uint64_t i = g_reload_rr.fetch_add(1);
      payload = "{\"verb\":\"RELOAD\",\"path\":\"" +
                mcr::svc::json_escape(
                    cfg.reload_paths[i % cfg.reload_paths.size()]) +
                "\"}";
    }
  } else {
    payload = R"({"verb":"SOLVERS"})";
  }
  ++stats.verbs[verb];
  // Every verb here except RELOAD is idempotent, so a retryable answer
  // is resent a bounded number of times before it counts as an error —
  // a worker SIGKILLed mid-response behind a router surfaces as one
  // retryable UPSTREAM_UNAVAILABLE, not a failed run.
  const bool idempotent = verb != "reload";
  const int max_attempts = idempotent ? 3 : 1;
  for (int attempt = 1;; ++attempt) {
    try {
      const mcr::json::Value resp = client.request(payload);
      if (resp.string_or("status", "") == "ok") {
        ++stats.ok;
        stats.latencies_ms.push_back(
            std::chrono::duration<double, std::milli>(Clock::now() - intended)
                .count());
        if (resp.has("cached")) {
          if (resp.at("cached").as_bool()) {
            ++stats.cache_hits;
          } else {
            ++stats.cache_misses;
          }
        }
        return;
      }
      const std::string code = resp.string_or("code", "UNKNOWN");
      if (attempt < max_attempts &&
          mcr::svc::ServiceError::is_retryable_code(code)) {
        ++stats.retries;
        std::this_thread::sleep_for(std::chrono::milliseconds(10 * attempt));
        continue;
      }
      ++stats.errors[code];
      return;
    } catch (const mcr::svc::TransportError&) {
      ++stats.transport_errors;
      try {
        client.reconnect();
      } catch (const mcr::svc::TransportError&) {
        // Endpoint gone (server died?). Back off so a dead server costs
        // ~20 failed sends per worker-second, not a busy loop.
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
      }
      return;
    }
  }
}

void open_loop_worker(const LoadConfig& cfg, std::size_t worker_index,
                      ArrivalSchedule& schedule, Clock::time_point start,
                      std::uint64_t worker_seed,
                      std::atomic<std::uint64_t>& issued, WorkerStats& stats) {
  Prng prng(worker_seed);
  try {
    mcr::svc::Client client = connect(cfg, worker_index);
    while (const std::optional<double> t = schedule.next()) {
      if (cfg.request_cap != 0 && issued.fetch_add(1) >= cfg.request_cap) return;
      const Clock::time_point intended =
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(*t));
      // Already past the arrival (backlog): send immediately — the
      // lateness stays inside the measured latency.
      std::this_thread::sleep_until(intended);
      issue_one(client, cfg, prng, intended, stats);
    }
  } catch (const mcr::svc::TransportError&) {
    ++stats.transport_errors;  // could not even connect
  }
}

void closed_loop_worker(const LoadConfig& cfg, std::size_t worker_index,
                        Clock::time_point deadline, std::uint64_t worker_seed,
                        std::atomic<std::uint64_t>& issued,
                        WorkerStats& stats) {
  Prng prng(worker_seed);
  try {
    mcr::svc::Client client = connect(cfg, worker_index);
    while (Clock::now() < deadline) {
      if (cfg.request_cap != 0 && issued.fetch_add(1) >= cfg.request_cap) return;
      issue_one(client, cfg, prng, Clock::now(), stats);
    }
  } catch (const mcr::svc::TransportError&) {
    ++stats.transport_errors;
  }
}

/// Exact sample percentile (nearest-rank with interpolation-free
/// semantics): the smallest sample with rank >= q*n. `sorted` ascending.
std::optional<double> sample_percentile(const std::vector<double>& sorted,
                                        double q) {
  if (sorted.empty()) return std::nullopt;
  const double rank = q * static_cast<double>(sorted.size());
  std::size_t idx = rank <= 1.0 ? 0 : static_cast<std::size_t>(std::ceil(rank)) - 1;
  idx = std::min(idx, sorted.size() - 1);
  return sorted[idx];
}

std::string fmt_opt_ms(const std::optional<double>& v) {
  if (!v.has_value()) return "-";
  std::ostringstream os;
  os.precision(4);
  os << *v;
  return os.str();
}

std::string json_opt(const std::optional<double>& v) {
  return v.has_value() ? mcr::json::format_number(*v) : "null";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mcr;
  try {
    const cli::Options opt = cli::parse(argc, argv);
    if (opt.has("version")) {
      std::cout << obs::version_string("mcr_load");
      return 0;
    }
    if (!opt.positional.empty() ||
        (!opt.has("socket") && !opt.has("port") && !opt.has("target"))) {
      std::cerr
          << "usage: mcr_load --socket PATH | --port N | --target SPEC ...\n"
             "                [--rps R | --ramp R1:S1,R2:S2,...] open loop\n"
             "                [--concurrency K]                  closed loop\n"
             "                [--connections N] [--duration S] [--requests N]\n"
             "                [--mix solve=90,stats=5,ping=5] [--cold-pct P]\n"
             "                [--reload-paths A.mcrpack,B.mcrpack] [--strict]\n"
             "                [--graph-n N] [--seed N] [--output PATH]\n"
             "                [--version]\n"
             "       SPEC is unix:PATH, HOST:PORT, or PORT (repeatable;\n"
             "       worker i drives target i mod N)\n";
      return 2;
    }

    LoadConfig cfg;
    for (const std::string& spec : opt.get_all("target")) {
      cfg.targets.push_back(svc::parse_backend_address(spec));
    }
    if (opt.has("socket")) {
      cfg.targets.push_back(svc::parse_backend_address("unix:" + opt.get("socket")));
    }
    if (opt.has("port")) {
      cfg.targets.push_back(svc::parse_backend_address(
          std::to_string(opt.get_int_in("port", 0, 1, 65535))));
    }
    cfg.open_loop = opt.has("rps") || opt.has("ramp");
    if (cfg.open_loop && opt.has("concurrency")) {
      std::cerr << "mcr_load: --concurrency is closed-loop; it cannot be "
                   "combined with --rps/--ramp\n";
      return 2;
    }
    cfg.duration_s =
        opt.get_double("duration", opt.has("requests") ? 86400.0 : 10.0);
    if (cfg.duration_s <= 0.0) {
      std::cerr << "mcr_load: --duration must be positive\n";
      return 2;
    }
    cfg.request_cap = static_cast<std::uint64_t>(
        opt.get_int_in("requests", 0, 0, std::int64_t{1} << 40));
    if (cfg.open_loop) {
      cfg.phases = opt.has("ramp")
                       ? parse_ramp(opt.get("ramp"))
                       : std::vector<Phase>{
                             {opt.get_double("rps", 100.0), cfg.duration_s}};
      cfg.connections =
          static_cast<std::size_t>(opt.get_int_in("connections", 4, 1, 4096));
    } else {
      cfg.connections =
          static_cast<std::size_t>(opt.get_int_in("concurrency", 4, 1, 4096));
    }
    cfg.mix = parse_mix(opt.get("mix", "solve=90,stats=5,ping=5"));
    cfg.cold_pct = opt.get_double("cold-pct", 0.0);
    if (cfg.cold_pct < 0.0 || cfg.cold_pct > 100.0) {
      std::cerr << "mcr_load: --cold-pct must be in [0,100]\n";
      return 2;
    }
    cfg.graph_n = opt.get_int_in("graph-n", 128, 2, 1 << 20);
    cfg.seed = static_cast<std::uint64_t>(opt.get_int("seed", 1));
    cfg.strict = opt.has("strict");
    {
      std::stringstream ss(opt.get("reload-paths"));
      std::string item;
      while (std::getline(ss, item, ',')) {
        if (!item.empty()) cfg.reload_paths.push_back(item);
      }
    }

    // Probe every endpoint once before spawning workers so a wrong path
    // fails with one clear message instead of N.
    for (std::size_t i = 0; i < cfg.targets.size(); ++i) {
      svc::Client probe = connect(cfg, i);
      if (!probe.ping()) {
        std::cerr << "mcr_load: endpoint " << cfg.targets[i].name
                  << " did not answer PING\n";
        return 1;
      }
    }

    Prng seeder(cfg.seed);
    ArrivalSchedule schedule(cfg.phases, seeder.fork_seed());
    std::atomic<std::uint64_t> issued{0};
    std::vector<WorkerStats> per_worker(cfg.connections);
    std::vector<std::thread> workers;
    workers.reserve(cfg.connections);
    const Clock::time_point start = Clock::now();
    const Clock::time_point deadline =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(cfg.duration_s));
    for (std::size_t i = 0; i < cfg.connections; ++i) {
      const std::uint64_t ws = seeder.fork_seed();
      WorkerStats& stats = per_worker[i];
      if (cfg.open_loop) {
        workers.emplace_back([&, ws, i] {
          open_loop_worker(cfg, i, schedule, start, ws, issued, stats);
        });
      } else {
        workers.emplace_back([&, ws, i] {
          closed_loop_worker(cfg, i, deadline, ws, issued, stats);
        });
      }
    }
    for (std::thread& t : workers) t.join();
    const double wall_s =
        std::chrono::duration<double>(Clock::now() - start).count();

    // Merge.
    WorkerStats total;
    for (WorkerStats& w : per_worker) {
      total.latencies_ms.insert(total.latencies_ms.end(),
                                w.latencies_ms.begin(), w.latencies_ms.end());
      for (const auto& [code, n] : w.errors) total.errors[code] += n;
      for (const auto& [verb, n] : w.verbs) total.verbs[verb] += n;
      total.ok += w.ok;
      total.transport_errors += w.transport_errors;
      total.retries += w.retries;
      total.cache_hits += w.cache_hits;
      total.cache_misses += w.cache_misses;
    }
    std::sort(total.latencies_ms.begin(), total.latencies_ms.end());
    const auto p50 = sample_percentile(total.latencies_ms, 0.50);
    const auto p95 = sample_percentile(total.latencies_ms, 0.95);
    const auto p99 = sample_percentile(total.latencies_ms, 0.99);
    const auto p999 = sample_percentile(total.latencies_ms, 0.999);
    double mean = 0.0;
    for (const double x : total.latencies_ms) mean += x;
    if (!total.latencies_ms.empty()) {
      mean /= static_cast<double>(total.latencies_ms.size());
    }
    std::uint64_t error_total = 0;
    for (const auto& [code, n] : total.errors) error_total += n;
    const double rps = wall_s > 0.0 ? static_cast<double>(total.ok) / wall_s : 0.0;

    std::cout << "mcr_load: " << (cfg.open_loop ? "open" : "closed")
              << "-loop, " << cfg.connections
              << (cfg.open_loop ? " connections" : " workers") << ", "
              << wall_s << " s wall\n";
    std::cout << "  completed " << total.ok << " ok, " << error_total
              << " service errors, " << total.transport_errors
              << " transport errors, " << total.retries << " retries ("
              << rps << " rps ok)\n";
    std::cout << "  latency ms: p50 " << fmt_opt_ms(p50) << "  p95 "
              << fmt_opt_ms(p95) << "  p99 " << fmt_opt_ms(p99) << "  p99.9 "
              << fmt_opt_ms(p999) << "  mean "
              << (total.latencies_ms.empty() ? std::string("-")
                                             : json::format_number(mean))
              << "  max "
              << (total.latencies_ms.empty()
                      ? std::string("-")
                      : json::format_number(total.latencies_ms.back()))
              << "\n";
    std::cout << "  verbs:";
    for (const auto& [verb, n] : total.verbs) {
      std::cout << " " << verb << "=" << n;
    }
    std::cout << "\n  cache: " << total.cache_hits << " hits, "
              << total.cache_misses << " misses\n";
    if (!total.errors.empty()) {
      std::cout << "  errors:";
      for (const auto& [code, n] : total.errors) {
        std::cout << " " << code << "=" << n;
      }
      std::cout << "\n";
    }

    if (opt.has("output")) {
      std::string out = "{\"schema_version\":1,\"tool\":\"mcr_load\"";
      out += ",\"mode\":\"";
      out += cfg.open_loop ? "open" : "closed";
      out += "\",\"config\":{\"connections\":" + std::to_string(cfg.connections);
      out += ",\"cold_pct\":" + json::format_number(cfg.cold_pct);
      out += ",\"graph_n\":" + std::to_string(cfg.graph_n);
      out += ",\"seed\":" + std::to_string(cfg.seed);
      out += ",\"phases\":[";
      for (std::size_t i = 0; i < cfg.phases.size(); ++i) {
        if (i != 0) out += ',';
        out += "{\"rps\":" + json::format_number(cfg.phases[i].rps) +
               ",\"seconds\":" + json::format_number(cfg.phases[i].seconds) + "}";
      }
      out += "],\"mix\":{";
      for (std::size_t i = 0; i < cfg.mix.size(); ++i) {
        if (i != 0) out += ',';
        out += "\"" + svc::json_escape(cfg.mix[i].verb) +
               "\":" + json::format_number(cfg.mix[i].weight);
      }
      out += "}},\"build\":" + obs::build_info_json();
      out += ",\"wall_seconds\":" + json::format_number(wall_s);
      out += ",\"completed\":" + std::to_string(total.ok);
      out += ",\"throughput_rps\":" + json::format_number(rps);
      out += ",\"latency_ms\":{\"count\":" +
             std::to_string(total.latencies_ms.size());
      out += ",\"mean\":" +
             (total.latencies_ms.empty() ? "null" : json::format_number(mean));
      out += ",\"max\":" + (total.latencies_ms.empty()
                                ? "null"
                                : json::format_number(total.latencies_ms.back()));
      out += ",\"p50\":" + json_opt(p50);
      out += ",\"p95\":" + json_opt(p95);
      out += ",\"p99\":" + json_opt(p99);
      out += ",\"p999\":" + json_opt(p999);
      out += "},\"verbs\":{";
      bool first = true;
      for (const auto& [verb, n] : total.verbs) {
        if (!first) out += ',';
        first = false;
        out += "\"" + svc::json_escape(verb) + "\":" + std::to_string(n);
      }
      out += "},\"errors\":{";
      first = true;
      for (const auto& [code, n] : total.errors) {
        if (!first) out += ',';
        first = false;
        out += "\"" + svc::json_escape(code) + "\":" + std::to_string(n);
      }
      out += "},\"transport_errors\":" + std::to_string(total.transport_errors);
      out += ",\"retries\":" + std::to_string(total.retries);
      out += ",\"cache\":{\"hits\":" + std::to_string(total.cache_hits);
      out += ",\"misses\":" + std::to_string(total.cache_misses) + "}}";
      std::ofstream f(opt.get("output"));
      if (!f) {
        std::cerr << "mcr_load: cannot write " << opt.get("output") << "\n";
        return 1;
      }
      f << out << "\n";
      std::cout << "  report: " << opt.get("output") << "\n";
    }
    if (total.transport_errors != 0) return 1;
    if (cfg.strict && error_total != 0) {
      std::cerr << "mcr_load: --strict and " << error_total
                << " service errors\n";
      return 1;
    }
    return 0;
  } catch (const std::invalid_argument& e) {
    std::cerr << "mcr_load: " << e.what() << "\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "mcr_load: " << e.what() << "\n";
    return 1;
  }
}
