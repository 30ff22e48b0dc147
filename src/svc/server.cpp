#include "svc/server.h"

#include <algorithm>
#include <any>
#include <chrono>
#include <cmath>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <utility>

#include "core/driver.h"
#include "core/registry.h"
#include "fault/fault.h"
#include "gen/spec.h"
#include "graph/io.h"
#include "store/format.h"
#include "support/json.h"
#include "support/stats.h"
#include "svc/result_json.h"

namespace mcr::svc {

namespace {

struct Objective {
  bool maximize = false;
  bool ratio = false;
  std::string name;  // canonical string
};

Objective parse_objective(const std::string& s) {
  if (s == "min_mean") return {false, false, s};
  if (s == "min_ratio") return {false, true, s};
  if (s == "max_mean") return {true, false, s};
  if (s == "max_ratio") return {true, true, s};
  throw RequestError(kErrBadRequest,
                     "unknown objective '" + s +
                         "' (expected min_mean | min_ratio | max_mean | max_ratio)");
}

}  // namespace

Server::Server(ServerOptions options)
    : options_(std::move(options)),
      graphs_(options_.graph_entries, &metrics_),
      cache_(options_.cache_entries, &metrics_),
      flight_(options_.flight),
      frame_({.unix_socket_path = options_.unix_socket_path,
              .tcp_port = options_.tcp_port,
              .tcp_bind_host = options_.tcp_bind_host,
              .max_frame_bytes = options_.max_frame_bytes,
              .idle_timeout_ms = options_.idle_timeout_ms,
              .stats_window_s = options_.stats_window_s,
              .stats_window_slots = options_.stats_window_slots},
             metrics_, [this](FrameServer::Request& req) { return handle_request(req); },
             [this](const FrameServer::Request& req, std::string_view code, double seconds) {
               finish_request(req, code, seconds);
             }) {
  if (!options_.request_log_path.empty()) {
    request_log_ = std::make_unique<RequestLog>(options_.request_log_path);
    if (!request_log_->ok()) {
      throw std::runtime_error("Server: cannot open request log " +
                               options_.request_log_path);
    }
  }
}

Server::~Server() { stop_and_drain(); }

void Server::start() {
  if (running_.load()) throw std::runtime_error("Server::start: already running");

  // Everything that can fail on configuration runs before any listener
  // exists. A server configured with a bad pack should fail to start,
  // not serve NOT_FOUND; a bad --stats-out path fails here rather than
  // leave a half-started server.
  if (!options_.dataset_path.empty()) attach_dataset(options_.dataset_path);
  const bool pump_enabled =
      options_.stats_interval_s > 0.0 && !options_.stats_out_path.empty();
  if (pump_enabled) {
    stats_out_.open(options_.stats_out_path, std::ios::app);
    if (!stats_out_) {
      throw std::runtime_error("Server: cannot open stats output " +
                               options_.stats_out_path);
    }
  }

  running_.store(true);
  try {
    frame_.start();
  } catch (...) {
    running_.store(false);
    stats_out_.close();
    throw;
  }
  dispatch_thread_ = std::thread([this] { dispatch_loop(); });
  if (pump_enabled) stats_thread_ = std::thread([this] { stats_loop(); });
}

void Server::stop_and_drain() {
  // Raise the drain guard before running_ flips: any thread that sees
  // running() == false is guaranteed attach_dataset already refuses.
  draining_.store(true);
  if (!running_.exchange(false)) return;
  {
    std::lock_guard lock(queue_mutex_);
    stopping_ = true;  // new SOLVE admissions now answer SHUTTING_DOWN
  }
  // 1. Connections: stop accepting, finish each connection's current
  //    request (the dispatcher is still alive to complete queued jobs),
  //    close the listeners, remove the socket file.
  frame_.drain();
  // 2. Dispatcher exits once the (now producer-free) queue drains.
  {
    std::lock_guard lock(queue_mutex_);
    stopping_dispatch_ = true;
  }
  queue_cv_.notify_all();
  dispatch_thread_.join();
  // 3. Stats pump, last — its final line then reflects every request
  //    that completed during the drain.
  if (stats_thread_.joinable()) {
    {
      std::lock_guard lock(stats_mutex_);
      stopping_stats_ = true;
    }
    stats_cv_.notify_all();
    stats_thread_.join();
    stats_out_.close();
  }
}

std::string Server::preload_dimacs_file(const std::string& path) {
  return graphs_.add(load_dimacs(path));
}

std::shared_ptr<const store::Dataset> Server::attach_dataset(const std::string& path) {
  // A SIGHUP (or RELOAD frame) racing stop_and_drain must not publish a
  // generation nothing will serve — and must not touch the watcher while
  // teardown is in flight.
  if (draining_.load()) {
    throw RequestError(kErrShuttingDown,
                       "attach_dataset: server is draining; reload refused");
  }
  // attach() validates the pack fully before publishing; on a throw the
  // previously published generation (if any) is untouched and keeps
  // serving — that is the zero-downtime guarantee of RELOAD.
  std::shared_ptr<const store::Dataset> ds = dataset_.attach(path);
  graphs_.add_shared(ds->fingerprint, ds->graph);
  metrics_.gauge("mcr_dataset_generation")
      .set(static_cast<std::int64_t>(ds->generation));
  metrics_.counter("mcr_dataset_attaches_total").add(1);
  return ds;
}

std::shared_ptr<const store::Dataset> Server::reload_dataset() {
  const std::shared_ptr<const store::Dataset> cur = dataset_.current();
  if (cur == nullptr) {
    throw std::runtime_error("reload_dataset: no dataset attached");
  }
  return attach_dataset(cur->path);
}

std::string Server::handle_request(FrameServer::Request& request) {
  RequestContext& ctx = request.context.emplace<RequestContext>();
  ctx.trace = flight_.begin(request.trace_id, request.verb, request.parent_span);
  // Every span this thread emits goes to both the legacy process-wide
  // sink (--trace FILE) and this request's flight-recorder trace.
  obs::TeeSink tee(options_.trace, ctx.trace.get());
  const obs::SinkScope sink_scope(tee.effective());
  const obs::Span span(obs::EventKind::kRequest, request.verb);
  const json::Value& req = request.body;
  const std::string& verb = request.verb;
  if (verb == "PING") return "{\"status\":\"ok\",\"service\":\"mcr\"}";
  if (verb == "LOAD") return handle_load(req, ctx);
  if (verb == "SOLVE") return handle_solve(req, ctx);
  if (verb == "SOLVERS") return handle_solvers();
  if (verb == "STATS") return handle_stats(req);
  if (verb == "HEALTH") return handle_health();
  if (verb == "TRACE") return handle_trace(req);
  return handle_reload(req, ctx);  // RELOAD: the envelope admits kVerbs only
}

void Server::finish_request(const FrameServer::Request& request, std::string_view code,
                            double seconds) {
  const double total_ms = seconds * 1000.0;
  // Null when the envelope refused the request before handle_request ran.
  const auto* ctx = std::any_cast<RequestContext>(&request.context);
  if (ctx != nullptr && ctx->trace != nullptr) {
    const auto note = [&](const char* key, const std::string& value) {
      if (!value.empty()) ctx->trace->note(key, value);
    };
    note("fingerprint", ctx->log.fingerprint);
    note("algo", ctx->log.algo);
    note("objective", ctx->log.objective);
    note("cache", ctx->log.cache);
    flight_.finish(ctx->trace, code, total_ms);
  }
  if (request_log_ != nullptr) {
    RequestLog::Entry entry = ctx != nullptr ? ctx->log : RequestLog::Entry{};
    entry.ts_ms = flight_.now_us() / 1000.0;
    entry.trace_id = request.trace_id;
    entry.verb = request.verb;
    entry.code = code;
    entry.total_ms = total_ms;
    request_log_->write(entry);
  }
}

std::string Server::handle_trace(const json::Value& req) const {
  obs::FlightRecorder::Filter filter;
  // "id" (not "trace_id") selects the *target* trace — "trace_id" on a
  // TRACE request is, as on every request, this request's own context.
  filter.trace_id = req.string_or("id", "");
  filter.verb = req.string_or("match_verb", "");
  filter.min_ms = req.number_or("min_ms", -1.0);
  filter.limit = request_count(req, "limit", 32.0);
  const std::size_t count = flight_.select(filter).size();
  // chrome_trace is one self-contained Chrome trace_event JSON object;
  // clients cut it out and hand it straight to Perfetto.
  std::string out = "{\"status\":\"ok\",\"count\":" + std::to_string(count);
  out += ",\"ring_size\":" + std::to_string(flight_.ring_size());
  out += ",\"pinned_size\":" + std::to_string(flight_.pinned_size());
  out += ",\"finished_total\":" + std::to_string(flight_.finished_total());
  out += ",\"evicted_total\":" + std::to_string(flight_.evicted_total());
  out += ",\"chrome_trace\":";
  out += flight_.chrome_trace_json(filter);
  out += "}";
  return out;
}

std::string Server::handle_reload(const json::Value& req, RequestContext& ctx) {
  std::string path = req.has("path") ? req.at("path").as_string() : std::string();
  if (path.empty()) {
    const std::shared_ptr<const store::Dataset> cur = dataset_.current();
    if (cur == nullptr) {
      throw RequestError(kErrBadRequest,
                         "no dataset attached (start with --dataset, or pass "
                         "\"path\" to RELOAD)");
    }
    path = cur->path;
  }
  std::shared_ptr<const store::Dataset> ds;
  try {
    ds = attach_dataset(path);
  } catch (const store::PackError& e) {
    // The swap never happened; the old generation keeps serving.
    throw RequestError(kErrBadRequest,
                       std::string("cannot attach dataset: ") + e.what());
  }
  ctx.log.fingerprint = ds->fingerprint;
  std::string out = "{\"status\":\"ok\",\"path\":\"" + json_escape(ds->path) +
                    "\",\"fingerprint\":\"" + ds->fingerprint +
                    "\",\"generation\":" + std::to_string(ds->generation) +
                    ",\"nodes\":" + std::to_string(ds->graph->num_nodes()) +
                    ",\"arcs\":" + std::to_string(ds->graph->num_arcs()) +
                    ",\"bytes\":" + std::to_string(ds->bytes) + "}";
  return out;
}

std::pair<std::shared_ptr<const Graph>, std::string> Server::resolve_graph(
    const json::Value& req) {
  if (req.has("fingerprint")) {
    const std::string fp = req.at("fingerprint").as_string();
    std::shared_ptr<const Graph> g = graphs_.find(fp);
    if (g == nullptr) {
      // The attached dataset is authoritative even if LRU pressure from
      // LOADed graphs evicted its registry entry: re-register instead
      // of bouncing the request.
      if (const auto ds = dataset_.current();
          ds != nullptr && ds->fingerprint == fp) {
        graphs_.add_shared(ds->fingerprint, ds->graph);
        return {ds->graph, fp};
      }
      throw RequestError(kErrNotFound,
                         "no graph with fingerprint " + fp +
                             " is resident (LOAD it first, or it was evicted)");
    }
    return {std::move(g), fp};
  }
  // The largest inline-DIMACS LOAD a frame can carry has about
  // max_frame_bytes / 8 arcs; a generated graph may not outgrow it, and
  // an inline header may not declare more nodes than that.
  const auto max_size = static_cast<std::int64_t>(options_.max_frame_bytes / 8);
  Graph loaded = [&]() -> Graph {
    if (req.has("dimacs")) return read_dimacs(req.at("dimacs").as_string(), max_size);
    if (req.has("path")) return load_dimacs(req.at("path").as_string());
    if (req.has("generator")) {
      const json::Value& spec = req.at("generator");
      const gen::SpecParam param = [&](const std::string& key, std::int64_t fallback) {
        if (!spec.has(key)) return fallback;
        const double value = spec.at(key).as_double();
        if (!(std::abs(value) < 9e18)) {  // no cast to int64 beyond this
          throw RequestError(kErrBadRequest, "generator " + key + " is out of range");
        }
        return static_cast<std::int64_t>(value);
      };
      return gen::generate(spec.string_or("family", ""), param, max_size);
    }
    throw RequestError(kErrBadRequest,
                       "no graph source (expected one of fingerprint | dimacs | "
                       "path | generator)");
  }();
  std::string fp = graphs_.add(std::move(loaded));
  std::shared_ptr<const Graph> g = graphs_.find(fp);
  if (g == nullptr) {  // capacity so small the new entry was evicted at once
    throw RequestError(kErrInternal, "graph evicted immediately after load");
  }
  return {std::move(g), fp};
}

std::string Server::handle_load(const json::Value& req, RequestContext& ctx) {
  const auto [graph, fp] = resolve_graph(req);
  ctx.log.fingerprint = fp;
  std::ostringstream os;
  os << "{\"status\":\"ok\",\"fingerprint\":\"" << fp
     << "\",\"nodes\":" << graph->num_nodes() << ",\"arcs\":" << graph->num_arcs()
     << ",\"resident_graphs\":" << graphs_.size() << "}";
  return os.str();
}

std::string Server::handle_solvers() const {
  const SolverRegistry& reg = SolverRegistry::instance();
  std::string out = "{\"status\":\"ok\",\"solvers\":[";
  bool first = true;
  for (const std::string& name : reg.all_names()) {
    const SolverInfo& info = reg.info(name);
    if (!first) out += ',';
    first = false;
    out += "{\"name\":\"" + json_escape(name) + "\",\"kind\":\"";
    out += info.kind == ProblemKind::kCycleRatio ? "ratio" : "mean";
    out += "\",\"exact\":";
    out += info.exact ? "true" : "false";
    out += ",\"bound\":\"" + json_escape(info.bound) + "\"}";
  }
  out += "]}";
  return out;
}

std::string Server::handle_stats(const json::Value& req) const {
  std::string dataset;
  if (const auto ds = dataset_.current(); ds != nullptr) {
    dataset = ",\"dataset\":{\"path\":\"" + json_escape(ds->path) +
              "\",\"fingerprint\":\"" + ds->fingerprint +
              "\",\"generation\":" + std::to_string(ds->generation) +
              ",\"bytes\":" + std::to_string(ds->bytes) + "}";
  }
  return frame_.stats_json(req, dataset);
}

std::string Server::handle_health() {
  std::size_t depth = 0;
  std::size_t in_flight = 0;
  bool stopping = false;
  {
    std::lock_guard lock(queue_mutex_);
    depth = queue_.size();
    in_flight = in_flight_;
    stopping = stopping_;
  }
  const std::size_t connections = frame_.connections();
  const auto now = std::chrono::steady_clock::now();
  const std::int64_t last_ns = last_solve_steady_ns_.load();
  const double last_solve_age_s =
      last_ns < 0 ? -1.0
                  : std::chrono::duration<double>(
                        now.time_since_epoch() - std::chrono::nanoseconds(last_ns))
                        .count();
  std::ostringstream os;
  os << "{\"status\":\"ok\",\"healthy\":" << (stopping ? "false" : "true")
     << ",\"draining\":" << (stopping ? "true" : "false")
     << ",\"queue_depth\":" << depth << ",\"in_flight\":" << in_flight
     << ",\"queue_capacity\":" << options_.queue_capacity
     << ",\"connections\":" << connections
     << ",\"uptime_seconds\":" << frame_.uptime_seconds()
     << ",\"last_solve_age_seconds\":" << last_solve_age_s << "}";
  return os.str();
}

std::string Server::telemetry_snapshot_json() {
  const std::int64_t ts_ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count();
  std::string out = "{\"ts_ms\":" + std::to_string(ts_ms);
  out += ",\"uptime_seconds\":" + json::format_number(frame_.uptime_seconds());
  out += ",\"window\":";
  out += frame_.window_json();
  out += ",\"gauges\":{";
  bool first = true;
  for (const auto& [name, value] : metrics_.gauge_values()) {
    // mcr_build_info is a constant-1 info gauge with long labels —
    // provenance belongs in the report artifact, not on every line.
    if (name.rfind("mcr_build_info", 0) == 0) continue;
    if (!first) out += ',';
    first = false;
    out += '"';
    out += json_escape(name);
    out += "\":" + std::to_string(value);
  }
  out += "},\"counters_delta\":{";
  first = true;
  const auto counters = metrics_.counter_values();
  for (const auto& [name, value] : counters) {
    const auto prev = stats_prev_counters_.find(name);
    const std::uint64_t delta =
        prev == stats_prev_counters_.end() ? value : value - prev->second;
    if (!first) out += ',';
    first = false;
    out += '"';
    out += json_escape(name);
    out += "\":" + std::to_string(delta);
  }
  out += "}}";
  stats_prev_counters_ = counters;
  return out;
}

void Server::stats_loop() {
  const auto interval = std::chrono::duration<double>(options_.stats_interval_s);
  std::unique_lock lock(stats_mutex_);
  for (;;) {
    // wait_for (not wait_until) drifts by a line's write time per tick —
    // fine for a telemetry feed, and immune to interval arithmetic
    // around suspends.
    if (stats_cv_.wait_for(lock, interval, [&] { return stopping_stats_; })) {
      // One final line at drain so even a run shorter than the interval
      // leaves a non-empty, parseable time series behind.
      stats_out_ << telemetry_snapshot_json() << '\n' << std::flush;
      return;
    }
    stats_out_ << telemetry_snapshot_json() << '\n' << std::flush;
  }
}

std::string Server::handle_solve(const json::Value& req, RequestContext& ctx) {
  auto [graph, fp] = resolve_graph(req);
  const Objective objective = parse_objective(req.string_or("objective", "min_mean"));
  const std::string algo =
      req.string_or("algo", objective.ratio ? "howard_ratio" : "howard");
  ctx.log.fingerprint = fp;
  ctx.log.algo = algo;
  ctx.log.objective = objective.name;
  const SolverRegistry& reg = SolverRegistry::instance();
  bool solver_is_ratio = false;
  try {
    solver_is_ratio = reg.info(algo).kind == ProblemKind::kCycleRatio;
  } catch (const std::out_of_range& e) {
    // The registry message lists every registered solver.
    throw RequestError(kErrBadRequest, e.what());
  }
  if (solver_is_ratio != objective.ratio) {
    throw RequestError(kErrBadRequest,
                       "solver '" + algo + "' solves cycle " +
                           (solver_is_ratio ? "ratio" : "mean") +
                           " but the objective is " + objective.name);
  }

  const CacheKey key{fp, objective.name, algo};
  ResultCache::Outcome outcome = cache_.acquire(key);
  const auto respond_ok = [&](const CycleResult& r, double solve_ms, bool cached) {
    std::string out = "{\"status\":\"ok\",\"cached\":";
    out += cached ? "true" : "false";
    out += ",\"fingerprint\":\"" + fp + "\",\"result\":";
    out += result_json(r, algo, objective.name, solve_ms);
    out += "}";
    return out;
  };
  if (outcome.role == ResultCache::Role::kHit) {
    ctx.log.cache = "hit";
    return respond_ok(outcome.result, outcome.solve_ms, true);
  }
  if (outcome.role == ResultCache::Role::kJoined) {
    ctx.log.cache = "join";
    if (!outcome.error_code.empty()) {
      throw RequestError(outcome.error_code, outcome.error_message);
    }
    return respond_ok(outcome.result, outcome.solve_ms, true);
  }
  ctx.log.cache = "miss";

  // Flight leader: admission against the bounded queue.
  auto job = std::make_shared<SolveJob>();
  job->key = key;
  job->graph = std::move(graph);
  job->maximize = objective.maximize;
  job->ratio = objective.ratio;
  job->trace = ctx.trace;
  if (const auto budget = request_deadline(req)) {
    ctx.log.deadline_ms = req.number_or("deadline_ms", 0.0);
    job->deadline = std::chrono::steady_clock::now() + *budget;
    // Clock-skip fault point: a kSkip decision jumps the deadline into
    // the past by `param` ms, as if the process had been suspended that
    // long between accepting the request and scheduling it.
    const fault::Decision skip = MCR_FAULT_POINT(fault::Site::kClockSkip);
    if (skip.action == fault::Action::kSkip) {
      *job->deadline -= std::chrono::milliseconds(skip.param);
    }
  }
  job->enqueue_us = flight_.now_us();
  {
    std::lock_guard lock(queue_mutex_);
    if (stopping_) {
      cache_.fail(key, kErrShuttingDown, "server is draining");
      throw RequestError(kErrShuttingDown, "server is draining");
    }
    if (in_flight_ >= options_.queue_capacity) {
      metrics_.counter("mcr_rejected_total").add(1);
      const std::string msg =
          "solve queue is full (capacity " +
          std::to_string(options_.queue_capacity) + "); retry later";
      cache_.fail(key, kErrBusy, msg);
      throw RequestError(kErrBusy, msg);
    }
    ++in_flight_;
    queue_.push_back(job);
    metrics_.gauge("mcr_queue_depth").set(static_cast<std::int64_t>(queue_.size()));
    metrics_.gauge("mcr_in_flight").set(static_cast<std::int64_t>(in_flight_));
    if (queue_.size() > queue_depth_highwater_) {
      queue_depth_highwater_ = queue_.size();
      metrics_.gauge("mcr_queue_depth_highwater")
          .set(static_cast<std::int64_t>(queue_depth_highwater_));
    }
  }
  queue_cv_.notify_one();

  // The dispatcher completes the flight; wait on it like any joiner.
  cache_.wait(outcome);
  ctx.log.queue_ms = job->queue_wait_ms;
  if (!outcome.error_code.empty()) {
    throw RequestError(outcome.error_code, outcome.error_message);
  }
  ctx.log.solve_ms = outcome.solve_ms;
  return respond_ok(outcome.result, outcome.solve_ms, false);
}

void Server::release_slot() {
  last_solve_steady_ns_.store(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                  std::chrono::steady_clock::now().time_since_epoch())
                                  .count());
  std::lock_guard lock(queue_mutex_);
  --in_flight_;
  metrics_.gauge("mcr_in_flight").set(static_cast<std::int64_t>(in_flight_));
}

void Server::complete_ok(const SolveJob& job, const CycleResult& result,
                         double solve_ms) {
  release_slot();
  cache_.publish(job.key, result, solve_ms);
}

void Server::complete_error(const SolveJob& job, const std::string& code,
                            const std::string& message) {
  release_slot();
  cache_.fail(job.key, code, message);
}

void Server::solve_single(SolveJob& job, int num_threads) {
  const double dispatch_begin_us = flight_.now_us();
  job.end_queue_wait(dispatch_begin_us);
  // Full-detail solver spans (component/iteration/...) flow into the
  // request's trace only when head sampling selected it; the
  // request-level outline (queue/dispatch spans) is recorded for every
  // request regardless.
  obs::TeeSink tee(options_.trace,
                   job.trace != nullptr && job.trace->sampled()
                       ? static_cast<obs::TraceSink*>(job.trace.get())
                       : nullptr);
  const SolveOptions so{.num_threads = num_threads,
                        .tile_arcs = options_.solve_tile_arcs,
                        .trace = tee.effective(),
                        .metrics = &metrics_,
                        .deadline = job.deadline};
  // Recorded before complete_* so the span is inside the trace by the
  // time the leader thread wakes and finishes it.
  const auto record_dispatch = [&] {
    if (job.trace != nullptr) {
      job.trace->record_span(obs::EventKind::kDispatch, job.key.algorithm,
                             dispatch_begin_us, flight_.now_us());
    }
  };
  Timer timer;
  try {
    const auto solver = SolverRegistry::instance().create(job.key.algorithm);
    const Graph& g = *job.graph;
    const CycleResult r =
        job.maximize ? (job.ratio ? maximum_cycle_ratio(g, *solver, so)
                                  : maximum_cycle_mean(g, *solver, so))
        : job.ratio  ? minimum_cycle_ratio(g, *solver, so)
                     : minimum_cycle_mean(g, *solver, so);
    record_dispatch();
    complete_ok(job, r, timer.millis());
  } catch (const SolveCancelled&) {
    metrics_.counter("mcr_deadline_cancelled_total").add(1);
    record_dispatch();
    complete_error(job, kErrDeadline, "deadline exceeded during solve");
  } catch (const std::invalid_argument& e) {
    record_dispatch();
    complete_error(job, kErrBadRequest, e.what());
  } catch (const std::exception& e) {
    record_dispatch();
    complete_error(job, kErrInternal, e.what());
  }
}

void Server::process_batch(const std::vector<std::shared_ptr<SolveJob>>& batch) {
  metrics_.histogram("mcr_batch_size", {1, 2, 4, 8, 16, 32, 64, 128})
      .observe(static_cast<double>(batch.size()));
  // Occupancy of the most recent dispatcher batch relative to batch_max,
  // in percent — a saturation signal (pinned at 100 = dispatcher is the
  // bottleneck, not arrival rate).
  metrics_.gauge("mcr_batch_occupancy")
      .set(options_.batch_max == 0
               ? 0
               : static_cast<std::int64_t>(100 * batch.size() /
                                           options_.batch_max));
  // Expire jobs whose deadline passed while queued — no work for them.
  const auto now = std::chrono::steady_clock::now();
  std::vector<SolveJob*> live;
  live.reserve(batch.size());
  for (const std::shared_ptr<SolveJob>& job : batch) {
    if (job->deadline && now >= *job->deadline) {
      job->end_queue_wait(flight_.now_us());
      metrics_.counter("mcr_deadline_cancelled_total").add(1);
      complete_error(*job, kErrDeadline, "deadline exceeded while queued");
    } else {
      live.push_back(job.get());
    }
  }
  // Every job is solved on its own. Several live jobs run one per pool
  // worker through the driver's instance fan-out, each single-threaded;
  // a lone job keeps the configured threads for its components.
  const int job_threads = live.size() > 1 ? 1 : options_.solve_threads;
  for_each_instance(live.size(), options_.solve_threads, &metrics_,
                    [&](std::size_t i) { solve_single(*live[i], job_threads); });
}

void Server::dispatch_loop() {
  for (;;) {
    std::vector<std::shared_ptr<SolveJob>> batch;
    {
      std::unique_lock lock(queue_mutex_);
      queue_cv_.wait(lock, [&] { return stopping_dispatch_ || !queue_.empty(); });
      if (queue_.empty()) return;  // only when stopping_dispatch_
      while (!queue_.empty() && batch.size() < options_.batch_max) {
        batch.push_back(std::move(queue_.front()));
        queue_.pop_front();
      }
      metrics_.gauge("mcr_queue_depth").set(static_cast<std::int64_t>(queue_.size()));
    }
    process_batch(batch);
  }
}

}  // namespace mcr::svc
