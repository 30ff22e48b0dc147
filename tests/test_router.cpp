// Tests for the fault-tolerant fleet front-end (svc::Router): backend
// address parsing, the deterministic clock-passed circuit breaker, the
// consistent-hash ring with replication, routing-key canonicalization,
// and a live router over real in-process mcr_serve workers — failover
// on worker death with zero client-visible errors, breaker open /
// probe-driven re-close, LOAD fan-out to the replica set, STATS
// fan-in, the INTERNAL-is-not-a-failover rule against bare FrameServer
// workers, the guarded-start contract both daemons share, and a
// mixed-verb concurrency hammer (runs under TSan in CI).
#include <gtest/gtest.h>

#include <poll.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <functional>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "graph/builder.h"
#include "graph/fingerprint.h"
#include "graph/io.h"
#include "obs/metrics.h"
#include "support/json.h"
#include "svc/client.h"
#include "svc/errors.h"
#include "svc/frame_server.h"
#include "svc/protocol.h"
#include "svc/router.h"
#include "svc/server.h"

namespace {

using namespace mcr;
using namespace std::chrono_literals;

std::string unique_socket_path() {
  static std::atomic<int> counter{0};
  return "/tmp/mcr_router_" + std::to_string(::getpid()) + "_" +
         std::to_string(counter.fetch_add(1)) + ".sock";
}

Graph make_ring(NodeId n, std::int64_t base_weight) {
  GraphBuilder b(n);
  for (NodeId u = 0; u < n; ++u) {
    b.add_arc(u, (u + 1) % n, base_weight + u);
  }
  return b.build();
}

std::string dimacs_text(const Graph& g) {
  std::ostringstream os;
  write_dimacs(os, g, "test_router");
  return os.str();
}

// ---------------------------------------------------------------------------
// Backend address parsing.

TEST(BackendAddress, ParsesUnixTcpAndBarePortForms) {
  const svc::BackendAddress u = svc::parse_backend_address("unix:/tmp/w1.sock");
  EXPECT_EQ(u.kind, svc::BackendAddress::Kind::kUnix);
  EXPECT_EQ(u.path, "/tmp/w1.sock");
  EXPECT_EQ(u.name, "unix:/tmp/w1.sock");

  const svc::BackendAddress t = svc::parse_backend_address("10.0.0.7:9301");
  EXPECT_EQ(t.kind, svc::BackendAddress::Kind::kTcp);
  EXPECT_EQ(t.host, "10.0.0.7");
  EXPECT_EQ(t.port, 9301);
  EXPECT_EQ(t.name, "10.0.0.7:9301");

  const svc::BackendAddress p = svc::parse_backend_address("9301");
  EXPECT_EQ(p.kind, svc::BackendAddress::Kind::kTcp);
  EXPECT_EQ(p.host, "127.0.0.1");
  EXPECT_EQ(p.port, 9301);
}

TEST(BackendAddress, RejectsMalformedSpecs) {
  EXPECT_THROW((void)svc::parse_backend_address(""), std::invalid_argument);
  EXPECT_THROW((void)svc::parse_backend_address("unix:"), std::invalid_argument);
  EXPECT_THROW((void)svc::parse_backend_address("host:notaport"),
               std::invalid_argument);
  EXPECT_THROW((void)svc::parse_backend_address("host:70000"),
               std::invalid_argument);
  EXPECT_THROW((void)svc::parse_backend_address(":9301"), std::invalid_argument);
  // Port 0 is only meaningful for listeners (ephemeral bind).
  EXPECT_THROW((void)svc::parse_backend_address("127.0.0.1:0"),
               std::invalid_argument);
  EXPECT_EQ(svc::parse_backend_address("127.0.0.1:0", /*allow_port_zero=*/true).port,
            0);
}

// ---------------------------------------------------------------------------
// Circuit breaker: pure state machine, clock passed in — no sleeps.

using Clock = std::chrono::steady_clock;

TEST(CircuitBreaker, OpensAtThresholdAndRefusesDuringCooldown) {
  svc::CircuitBreaker::Options o;
  o.failure_threshold = 3;
  o.cooldown_initial_ms = 100.0;
  svc::CircuitBreaker cb(o);
  const auto t0 = Clock::now();

  EXPECT_EQ(cb.state(), svc::CircuitBreaker::State::kClosed);
  cb.on_failure(t0);
  cb.on_failure(t0);
  EXPECT_EQ(cb.state(), svc::CircuitBreaker::State::kClosed);
  EXPECT_TRUE(cb.admit(t0));  // two failures: still closed, still admitting
  cb.on_failure(t0);          // third consecutive failure trips it
  EXPECT_EQ(cb.state(), svc::CircuitBreaker::State::kOpen);
  EXPECT_FALSE(cb.admit(t0));
  EXPECT_FALSE(cb.admit(t0 + 1ms));  // jitter floor is 0.5 * nominal
  EXPECT_EQ(cb.current_cooldown_ms(), 100.0);
}

TEST(CircuitBreaker, SuccessResetsTheConsecutiveFailureCount) {
  svc::CircuitBreaker cb(svc::CircuitBreaker::Options{});  // threshold 3
  const auto t0 = Clock::now();
  cb.on_failure(t0);
  cb.on_failure(t0);
  cb.on_success();  // a success between failures means they are not consecutive
  cb.on_failure(t0);
  cb.on_failure(t0);
  EXPECT_EQ(cb.state(), svc::CircuitBreaker::State::kClosed);
  EXPECT_EQ(cb.consecutive_failures(), 2);
}

TEST(CircuitBreaker, HalfOpenAdmitsOneTrialThenReclosesOrReopens) {
  svc::CircuitBreaker::Options o;
  o.failure_threshold = 1;
  o.cooldown_initial_ms = 100.0;
  o.cooldown_max_ms = 1000.0;
  svc::CircuitBreaker cb(o);
  const auto t0 = Clock::now();
  cb.on_failure(t0);
  ASSERT_EQ(cb.state(), svc::CircuitBreaker::State::kOpen);

  // Past the jitter ceiling (1.0 * nominal) the breaker half-opens and
  // admits exactly one trial; concurrent admits are refused until the
  // trial reports.
  const auto after = t0 + 101ms;
  EXPECT_TRUE(cb.admit(after));
  EXPECT_EQ(cb.state(), svc::CircuitBreaker::State::kHalfOpen);
  EXPECT_FALSE(cb.admit(after));

  cb.on_success();
  EXPECT_EQ(cb.state(), svc::CircuitBreaker::State::kClosed);
  EXPECT_EQ(cb.consecutive_failures(), 0);
  EXPECT_TRUE(cb.admit(after));

  // Trip again, fail the half-open trial: the nominal cooldown doubles.
  cb.on_failure(after);
  ASSERT_EQ(cb.state(), svc::CircuitBreaker::State::kOpen);
  const auto again = after + 101ms;
  EXPECT_TRUE(cb.admit(again));
  cb.on_failure(again);
  EXPECT_EQ(cb.state(), svc::CircuitBreaker::State::kOpen);
  EXPECT_EQ(cb.current_cooldown_ms(), 200.0);
}

TEST(CircuitBreaker, CooldownDoublingIsCappedAtTheMaximum) {
  svc::CircuitBreaker::Options o;
  o.failure_threshold = 1;
  o.cooldown_initial_ms = 100.0;
  o.cooldown_max_ms = 250.0;
  svc::CircuitBreaker cb(o);
  auto t = Clock::now();
  cb.on_failure(t);
  for (int i = 0; i < 5; ++i) {
    t += 10s;  // far past any cooldown: half-open, then fail the trial
    ASSERT_TRUE(cb.admit(t));
    cb.on_failure(t);
  }
  EXPECT_EQ(cb.current_cooldown_ms(), 250.0);  // 100 -> 200 -> capped
}

// ---------------------------------------------------------------------------
// Ring + routing keys. A stopped Router still answers the pure helpers.

svc::RouterOptions three_worker_options() {
  svc::RouterOptions ro;
  ro.workers.push_back(svc::parse_backend_address("unix:/tmp/ring_a.sock"));
  ro.workers.push_back(svc::parse_backend_address("unix:/tmp/ring_b.sock"));
  ro.workers.push_back(svc::parse_backend_address("unix:/tmp/ring_c.sock"));
  ro.replicas = 2;
  return ro;
}

TEST(HashRing, SameKeySameReplicaSetAndReplicasAreDistinct) {
  svc::Router router(three_worker_options());
  for (const std::string key : {"fp:abc", "fp:def", "gen:{seed:1}", "x"}) {
    const auto a = router.replica_indices(key);
    const auto b = router.replica_indices(key);
    EXPECT_EQ(a, b) << key;  // deterministic
    ASSERT_EQ(a.size(), 2u) << key;
    EXPECT_NE(a[0], a[1]) << key;  // replicas are distinct workers
  }
}

TEST(HashRing, ReplicationFactorIsClampedToTheFleetSize) {
  svc::RouterOptions ro = three_worker_options();
  ro.replicas = 8;
  svc::Router router(std::move(ro));
  const auto set = router.replica_indices("fp:abc");
  ASSERT_EQ(set.size(), 3u);
  EXPECT_EQ(std::set<std::size_t>(set.begin(), set.end()).size(), 3u);
}

TEST(HashRing, KeysSpreadAcrossTheWholeFleet) {
  svc::Router router(three_worker_options());
  std::vector<std::size_t> primaries(3, 0);
  for (int i = 0; i < 300; ++i) {
    const auto set = router.replica_indices("fp:" + std::to_string(i));
    ASSERT_FALSE(set.empty());
    ++primaries[set[0]];
  }
  // With 64 vnodes per worker no backend should be starved or own
  // (nearly) everything.
  for (const std::size_t count : primaries) {
    EXPECT_GT(count, 30u);
    EXPECT_LT(count, 200u);
  }
}

TEST(RoutingKey, DeclaredFingerprintWinsAndGeneratorSpecIsCanonical) {
  const json::Value by_fp = json::parse(
      R"({"verb":"SOLVE","fingerprint":"abc123","generator":{"family":"ring"}})");
  EXPECT_EQ(svc::Router::routing_key_for(by_fp), "fp:abc123");

  // Logically-equal specs produce the same key regardless of the JSON
  // text's key order or number spelling (1e3 == 1000).
  const json::Value spec_a = json::parse(
      R"({"verb":"SOLVE","generator":{"family":"sprand","nodes":1000,"seed":7}})");
  const json::Value spec_b = json::parse(
      R"({"verb":"SOLVE","generator":{"seed":7,"nodes":1e3,"family":"sprand"}})");
  const std::string key_a = svc::Router::routing_key_for(spec_a);
  EXPECT_EQ(key_a, svc::Router::routing_key_for(spec_b));
  EXPECT_EQ(key_a.rfind("gen:", 0), 0u);

  // A different spec is a different key.
  const json::Value spec_c = json::parse(
      R"({"verb":"SOLVE","generator":{"seed":8,"nodes":1000,"family":"sprand"}})");
  EXPECT_NE(key_a, svc::Router::routing_key_for(spec_c));

  EXPECT_EQ(svc::Router::routing_key_for(json::parse(R"({"verb":"PING"})")), "");
}

TEST(RoutingKey, DimacsContentRoutesByTheGraphFingerprint) {
  // The router computes the same content fingerprint the worker will
  // mint on LOAD, so LOAD-by-dimacs and the later SOLVE-by-fingerprint
  // agree on the replica set.
  const Graph g = make_ring(16, 3);
  const json::Value load = json::parse(
      R"({"verb":"LOAD","dimacs":")" + svc::json_escape(dimacs_text(g)) + "\"}");
  EXPECT_EQ(svc::Router::routing_key_for(load), "fp:" + fingerprint_hex(g));

  // Malformed DIMACS still yields a stable (content-hash) key; a worker
  // owns the BAD_REQUEST.
  const json::Value bad =
      json::parse(R"({"verb":"LOAD","dimacs":"p nonsense"})");
  const std::string bad_key = svc::Router::routing_key_for(bad);
  EXPECT_EQ(bad_key.rfind("dimacs:", 0), 0u);
  EXPECT_EQ(bad_key, svc::Router::routing_key_for(bad));
}

// ---------------------------------------------------------------------------
// Live fleet: a router over real in-process workers.

/// Three workers on unix sockets plus a router in front, probes driven
/// manually (probe_interval_ms = 0) so tests are deterministic.
struct Fleet {
  explicit Fleet(std::size_t n, svc::RouterOptions ro = {}) {
    for (std::size_t i = 0; i < n; ++i) {
      svc::ServerOptions so;
      so.unix_socket_path = unique_socket_path();
      workers.push_back(std::make_unique<svc::Server>(so));
      workers.back()->start();
      worker_paths.push_back(so.unix_socket_path);
      ro.workers.push_back(svc::parse_backend_address("unix:" + so.unix_socket_path));
    }
    ro.unix_socket_path = unique_socket_path();
    ro.probe_interval_ms = 0.0;  // tests call probe_now() by hand
    router_path = ro.unix_socket_path;
    router = std::make_unique<svc::Router>(std::move(ro));
    router->start();
  }

  ~Fleet() {
    if (router != nullptr) router->stop_and_drain();
    for (auto& w : workers) {
      if (w != nullptr) w->stop_and_drain();
    }
  }

  [[nodiscard]] svc::Client client() const {
    return svc::Client::connect_unix(router_path);
  }

  [[nodiscard]] std::uint64_t counter(const std::string& name) {
    return router->metrics().counter(name).value();
  }

  std::vector<std::unique_ptr<svc::Server>> workers;
  std::vector<std::string> worker_paths;
  std::string router_path;
  std::unique_ptr<svc::Router> router;
};

TEST(RouterFleet, LoadFansOutToReplicasAndFingerprintSolvesAreAffine) {
  Fleet fleet(3);
  svc::Client client = fleet.client();
  EXPECT_TRUE(client.ping());

  const Graph g = make_ring(24, 5);
  const std::string fp = client.load_dimacs_text(dimacs_text(g));
  EXPECT_EQ(fp, fingerprint_hex(g));

  // The LOAD fanned out to every replica of the fingerprint's set: a
  // direct (router-bypassing) SOLVE against each replica worker finds
  // the graph resident.
  const auto replicas = fleet.router->replica_indices("fp:" + fp);
  ASSERT_EQ(replicas.size(), 2u);
  for (const std::size_t idx : replicas) {
    svc::Client direct = svc::Client::connect_unix(fleet.worker_paths[idx]);
    EXPECT_EQ(direct.solve(fp).string_or("status", ""), "ok")
        << "replica " << idx << " does not hold " << fp;
  }

  // Through the router the SOLVE routes to that same set.
  const json::Value r = client.solve(fp);
  EXPECT_EQ(r.string_or("status", ""), "ok");
  EXPECT_EQ(r.string_or("fingerprint", ""), fp);
}

TEST(RouterFleet, WorkerDeathFailsOverWithZeroClientVisibleErrors) {
  Fleet fleet(3);
  svc::Client client = fleet.client();
  const Graph g = make_ring(24, 5);
  const std::string fp = client.load_dimacs_text(dimacs_text(g));
  const auto replicas = fleet.router->replica_indices("fp:" + fp);
  ASSERT_EQ(replicas.size(), 2u);

  // Kill the PRIMARY replica: the next fingerprint-addressed SOLVE hits
  // its corpse first and must fail over to the surviving replica.
  fleet.workers[replicas[0]]->stop_and_drain();
  for (int i = 0; i < 8; ++i) {
    const json::Value r = client.solve(fp);
    EXPECT_EQ(r.string_or("status", ""), "ok") << "request " << i;
  }
  EXPECT_GT(fleet.counter("mcr_router_failovers_total"), 0u);
  EXPECT_EQ(fleet.counter("mcr_router_no_replica_total"), 0u);
}

// A 17-byte header declaring 20 million nodes is refused by the
// router's own parse (it routes by content hash instead) and by the
// worker, which answers BAD_REQUEST; neither builds the graph.
TEST(RouterFleet, OversizedDimacsHeaderLoadIsABadRequest) {
  Fleet fleet(3);
  svc::Client client = fleet.client();
  const std::string load = R"({"verb":"LOAD","dimacs":"p mcr 20000000 0\n"})";
  EXPECT_EQ(svc::Router::routing_key_for(json::parse(load)).rfind("dimacs:", 0), 0u);
  const json::Value r = client.request(load);
  EXPECT_EQ(r.string_or("code", ""), "BAD_REQUEST");
  EXPECT_NE(r.string_or("message", "").find("declares 20000000 nodes"), std::string::npos)
      << r.string_or("message", "");
  EXPECT_TRUE(client.ping());
}

TEST(RouterFleet, BreakerOpensOnRepeatedFailureAndProbeRecloses) {
  svc::RouterOptions ro;
  ro.breaker.failure_threshold = 2;
  ro.breaker.cooldown_initial_ms = 1.0;  // expire instantly for the test
  ro.breaker.cooldown_max_ms = 1.0;
  Fleet fleet(2, std::move(ro));
  svc::Client client = fleet.client();
  const Graph g = make_ring(24, 5);
  const std::string fp = client.load_dimacs_text(dimacs_text(g));
  const auto replicas = fleet.router->replica_indices("fp:" + fp);
  ASSERT_EQ(replicas.size(), 2u);
  const std::size_t victim = replicas[0];
  const std::string victim_path = fleet.worker_paths[victim];

  fleet.workers[victim]->stop_and_drain();
  for (int i = 0; i < 6; ++i) {
    const json::Value r = client.solve(fp);
    EXPECT_EQ(r.string_or("status", ""), "ok")
        << i << ": " << r.string_or("code", "") << ": "
        << r.string_or("message", "");
  }
  {
    const auto snap = fleet.router->backend_snapshots();
    EXPECT_FALSE(snap[victim].up);
    EXPECT_GT(snap[victim].failures, 0u);
  }
  EXPECT_GT(fleet.counter("mcr_router_breaker_opens_total"), 0u);
  EXPECT_EQ(fleet.router->metrics()
                .gauge(obs::labeled_name("mcr_router_backend_up",
                                         {{"worker", "unix:" + victim_path}}))
                .value(),
            0);

  // Restart a worker on the same socket path. The breaker's cooldown
  // (1ms) has long expired, so the next probe is the half-open trial:
  // it succeeds and re-closes the breaker.
  svc::ServerOptions so;
  so.unix_socket_path = victim_path;
  svc::Server revived(so);
  revived.start();
  std::this_thread::sleep_for(5ms);
  fleet.router->probe_now();
  {
    const auto snap = fleet.router->backend_snapshots();
    EXPECT_TRUE(snap[victim].up);
    EXPECT_EQ(snap[victim].breaker, svc::CircuitBreaker::State::kClosed);
  }
  EXPECT_GT(fleet.counter("mcr_router_backend_recoveries_total"), 0u);

  // The revived primary is a fresh process: it lost graph residency, so
  // the fingerprint-addressed SOLVE surfaces its NOT_FOUND verbatim
  // (permanent errors never fail over — the contract is "LOAD again").
  EXPECT_EQ(client.solve(fp).string_or("code", ""), "NOT_FOUND");
  ASSERT_EQ(client.load_dimacs_text(dimacs_text(g)), fp);  // re-fan-out
  EXPECT_EQ(client.solve(fp).string_or("status", ""), "ok");
  revived.stop_and_drain();
}

TEST(RouterFleet, AllReplicasDownYieldsRetryableUpstreamUnavailable) {
  svc::RouterOptions ro;
  ro.max_attempts = 4;
  Fleet fleet(2, std::move(ro));
  svc::Client client = fleet.client();
  const Graph g = make_ring(24, 5);
  const std::string fp = client.load_dimacs_text(dimacs_text(g));
  for (auto& w : fleet.workers) w->stop_and_drain();

  const json::Value r = client.solve(fp);
  EXPECT_EQ(r.string_or("status", ""), "error");
  EXPECT_EQ(r.string_or("code", ""), svc::kErrUpstream);
  // The router's verdict is explicitly retryable: the caller's backoff
  // machinery (mcr_query --retry) can keep trying a healing fleet.
  EXPECT_TRUE(svc::ServiceError::is_retryable_code(r.string_or("code", "")));
  EXPECT_GT(fleet.counter("mcr_router_no_replica_total"), 0u);
}

TEST(RouterFleet, StatsReportsBackendsAndFanoutEmbedsWorkerStats) {
  Fleet fleet(3);
  svc::Client client = fleet.client();
  EXPECT_TRUE(client.ping());

  const json::Value stats = client.request(R"({"verb":"STATS"})");
  ASSERT_EQ(stats.string_or("status", ""), "ok");
  EXPECT_EQ(stats.string_or("service", ""), "mcr_router");
  ASSERT_TRUE(stats.has("backends"));
  EXPECT_EQ(stats.at("backends").as_array().size(), 3u);
  for (const json::Value& b : stats.at("backends").as_array()) {
    EXPECT_TRUE(b.at("up").as_bool());
    EXPECT_EQ(b.string_or("breaker", ""), "closed");
  }
  // The router serves the same Prometheus contract as a worker.
  EXPECT_TRUE(stats.has("prometheus"));
  const std::string prom = stats.at("prometheus").as_string();
  EXPECT_NE(prom.find("mcr_router_backend_up"), std::string::npos);
  EXPECT_NE(prom.find("mcr_router_failovers_total"), std::string::npos);

  const json::Value fanout = client.request(R"({"verb":"STATS","fanout":true})");
  ASSERT_EQ(fanout.string_or("status", ""), "ok");
  ASSERT_TRUE(fanout.has("workers"));
  EXPECT_EQ(fanout.at("workers").as_object().size(), 3u);
  for (const auto& [name, worker_stats] : fanout.at("workers").as_object()) {
    EXPECT_EQ(worker_stats.string_or("status", ""), "ok") << name;
  }

  // Answers the router builds itself lead with the trace id like every
  // other answer, fan-outs included, whose embedded worker answers carry
  // ids of their own.
  for (const char* request : {R"({"verb":"STATS"})", R"({"verb":"STATS","fanout":true})",
                              R"({"verb":"RELOAD"})"}) {
    EXPECT_EQ(client.request_raw(request).rfind("{\"trace_id\":\"", 0), 0u) << request;
  }
  // The STATS frame is the worker's: build provenance, and the windowed
  // per-verb view `mcr_query top` reads.
  EXPECT_TRUE(stats.has("build"));
  const json::Value windowed = client.stats(/*window=*/true);
  ASSERT_TRUE(windowed.has("window"));
  EXPECT_TRUE(windowed.at("window").at("verbs").has("STATS"));
}

TEST(RouterFleet, HealthSummarizesTheFleetAndTracksProbes) {
  Fleet fleet(2);
  svc::Client client = fleet.client();
  json::Value h = client.health();
  ASSERT_EQ(h.string_or("status", ""), "ok");
  EXPECT_TRUE(h.at("healthy").as_bool());
  EXPECT_EQ(h.at("backends_total").as_double(), 2.0);
  EXPECT_EQ(h.at("backends_up").as_double(), 2.0);

  // Probes notice worker death without any client traffic.
  fleet.workers[0]->stop_and_drain();
  fleet.workers[1]->stop_and_drain();
  for (int i = 0; i < 4; ++i) fleet.router->probe_now();
  h = client.health();
  EXPECT_FALSE(h.at("healthy").as_bool());
  EXPECT_EQ(h.at("backends_up").as_double(), 0.0);
}

TEST(RouterFleet, TraceContextIsMintedAndClientIdsPropagate) {
  Fleet fleet(2);
  svc::Client client = fleet.client();
  // Router mints an id when the client sent none.
  const json::Value minted = client.request(R"({"verb":"PING"})");
  EXPECT_FALSE(minted.string_or("trace_id", "").empty());
  // A caller-chosen id survives the hop to the worker and back.
  const json::Value echoed =
      client.request(R"({"verb":"PING","trace_id":"feedfacefeedface"})");
  EXPECT_EQ(echoed.string_or("trace_id", ""), "feedfacefeedface");
}

TEST(RouterFleet, HugeDeadlineIsCappedNotOverflowed) {
  // deadline_ms = 1e300 is capped like mcr_serve caps it; converted
  // unclamped it would overflow the clock and read as already expired.
  Fleet fleet(2);
  svc::Client client = fleet.client();
  const std::string fp = client.load_dimacs_text(dimacs_text(make_ring(24, 5)));
  const json::Value r = client.request(
      R"({"verb":"SOLVE","fingerprint":")" + fp + R"(","deadline_ms":1e300})");
  EXPECT_EQ(r.string_or("status", ""), "ok") << r.string_or("code", "");
}

TEST(RouterFleet, ExpiredDeadlineDoesNotLeakTheHalfOpenTrial) {
  svc::RouterOptions ro;
  ro.breaker.failure_threshold = 1;
  ro.breaker.cooldown_initial_ms = 1.0;  // expire instantly for the test
  ro.breaker.cooldown_max_ms = 1.0;
  Fleet fleet(2, std::move(ro));
  svc::Client client = fleet.client();
  const Graph g = make_ring(24, 5);
  const std::string fp = client.load_dimacs_text(dimacs_text(g));
  const auto replicas = fleet.router->replica_indices("fp:" + fp);
  ASSERT_EQ(replicas.size(), 2u);
  const std::size_t victim = replicas[0];
  const std::string victim_path = fleet.worker_paths[victim];

  // One transport failure (threshold 1) opens the victim's breaker.
  fleet.workers[victim]->stop_and_drain();
  EXPECT_EQ(client.solve(fp).string_or("status", ""), "ok");  // failover
  ASSERT_EQ(fleet.router->backend_snapshots()[victim].breaker,
            svc::CircuitBreaker::State::kOpen);

  // Past the 1ms cooldown an already-expired request arrives. It must
  // be refused BEFORE the breaker is consulted: admit() on an expired
  // open breaker consumes the half-open state's single trial slot, and
  // an attempt abandoned on the deadline early-return would never
  // report back — wedging the breaker half-open so that no probe (the
  // prober goes through admit() too) could ever re-close it.
  std::this_thread::sleep_for(5ms);
  const json::Value r = client.request(
      R"({"verb":"SOLVE","fingerprint":")" + fp + R"(","deadline_ms":0.000001})");
  EXPECT_EQ(r.string_or("code", ""), svc::kErrDeadline);

  // The revived worker must be re-admittable: the next probe is the
  // half-open trial and re-closes the breaker.
  svc::ServerOptions so;
  so.unix_socket_path = victim_path;
  svc::Server revived(so);
  revived.start();
  std::this_thread::sleep_for(5ms);
  fleet.router->probe_now();
  const auto snap = fleet.router->backend_snapshots();
  EXPECT_TRUE(snap[victim].up);
  EXPECT_EQ(snap[victim].breaker, svc::CircuitBreaker::State::kClosed);
  revived.stop_and_drain();
}

TEST(RouterFleet, StalePooledConnectionsDoNotFeedTheBreaker) {
  svc::RouterOptions ro;
  ro.breaker.failure_threshold = 1;  // one counted failure would open a breaker
  Fleet fleet(2, std::move(ro));
  svc::Client client = fleet.client();
  const Graph g = make_ring(24, 5);
  // The LOAD fan-out parks one pooled upstream connection per replica.
  const std::string fp = client.load_dimacs_text(dimacs_text(g));
  EXPECT_EQ(client.solve(fp).string_or("status", ""), "ok");

  // Restart every worker in place: the pooled connections all went
  // stale with the old processes, while the fleet itself is healthy.
  for (std::size_t i = 0; i < fleet.workers.size(); ++i) {
    fleet.workers[i]->stop_and_drain();
    svc::ServerOptions so;
    so.unix_socket_path = fleet.worker_paths[i];
    fleet.workers[i] = std::make_unique<svc::Server>(so);
    fleet.workers[i]->start();
  }

  // The next requests ride (and discard) the stale pool entries; each
  // must be retried on a fresh dial without the breaker hearing about
  // it. With failure_threshold = 1 a single miscounted failure would
  // open a breaker and sink this LOAD fan-out.
  EXPECT_EQ(client.load_dimacs_text(dimacs_text(g)), fp);
  EXPECT_EQ(client.solve(fp).string_or("status", ""), "ok");
  for (const auto& snap : fleet.router->backend_snapshots()) {
    EXPECT_TRUE(snap.up) << snap.name;
    EXPECT_EQ(snap.breaker, svc::CircuitBreaker::State::kClosed) << snap.name;
    EXPECT_EQ(snap.failures, 0u) << snap.name;
  }
}

/// A router in front of two replicas; every test request is a
/// fingerprint SOLVE, so both workers are candidates and a failover has
/// somewhere to go.
svc::RouterOptions two_replica_router(const std::string& worker_a,
                                      const std::string& worker_b) {
  svc::RouterOptions ro;
  ro.workers.push_back(svc::parse_backend_address("unix:" + worker_a));
  ro.workers.push_back(svc::parse_backend_address("unix:" + worker_b));
  ro.replicas = 2;
  ro.unix_socket_path = unique_socket_path();
  ro.probe_interval_ms = 0.0;
  return ro;
}

constexpr const char* kFingerprintSolve =
    R"({"verb":"SOLVE","fingerprint":"0123456789abcdef"})";

TEST(RouterFleet, WorkerInternalErrorIsReturnedVerbatimWithoutFailover) {
  // The breaker rule (docs/FLEET.md): a worker that answers at all is
  // healthy, so every error it answers counts as a breaker success.
  // Whether the router then tries the other replica is errors.h's
  // may_fail_over() — INTERNAL, for one, goes back to the client as-is,
  // because another replica would run the same request into the same
  // failure. The workers are bare FrameServers whose only answer is the
  // code under test, so the served count shows every attempt made.
  for (const char* code :
       {svc::kErrBadRequest, svc::kErrNotFound, svc::kErrBusy, svc::kErrDeadline,
        svc::kErrFrameTooLarge, svc::kErrBadFrame, svc::kErrShuttingDown,
        svc::kErrInternal, svc::kErrUpstream}) {
    SCOPED_TRACE(code);
    const std::string answer = svc::error_payload(code, "worker fell over");
    std::atomic<int> served{0};
    obs::MetricsRegistry worker_metrics;
    std::vector<std::unique_ptr<svc::FrameServer>> workers;
    std::vector<std::string> paths;
    for (int i = 0; i < 2; ++i) {
      svc::FrameServerConfig fc;
      fc.unix_socket_path = unique_socket_path();
      paths.push_back(fc.unix_socket_path);
      workers.push_back(std::make_unique<svc::FrameServer>(
          fc, worker_metrics, [&](svc::FrameServer::Request&) {
            served.fetch_add(1);
            return answer;
          }));
      workers.back()->start();
    }
    svc::RouterOptions ro = two_replica_router(paths[0], paths[1]);
    const std::string router_path = ro.unix_socket_path;
    svc::Router router(std::move(ro));
    router.start();

    svc::Client client = svc::Client::connect_unix(router_path);
    const json::Value r = client.request(kFingerprintSolve);
    EXPECT_EQ(r.string_or("status", ""), "error");
    EXPECT_EQ(r.string_or("code", ""), code);
    EXPECT_EQ(r.string_or("message", ""), "worker fell over");
    const bool fails_over = svc::ServiceError::may_fail_over(code);
    EXPECT_EQ(served.load(), fails_over ? 2 : 1);
    EXPECT_EQ(router.metrics().counter("mcr_router_failovers_total").value(),
              fails_over ? 1u : 0u);
    for (const auto& snap : router.backend_snapshots()) {
      EXPECT_TRUE(snap.up) << snap.name;
      EXPECT_EQ(snap.breaker, svc::CircuitBreaker::State::kClosed) << snap.name;
      EXPECT_EQ(snap.failures, 0u) << snap.name;
    }
    router.stop_and_drain();
  }
}

TEST(RouterFleet, EveryForwardedAttemptKeepsTheBackendBooks) {
  // FLEET.md's passive drain rule holds for any forwarded request, not
  // only SOLVE failover: both replicas answering a LOAD with
  // SHUTTING_DOWN end up draining. A STATS fan-out is an attempt like any
  // other, so it adds one to each backend's requests. The workers are
  // bare FrameServers that answer STATS ok and everything else
  // SHUTTING_DOWN.
  obs::MetricsRegistry worker_metrics;
  std::vector<std::unique_ptr<svc::FrameServer>> workers;
  std::vector<std::string> paths;
  for (int i = 0; i < 2; ++i) {
    svc::FrameServerConfig fc;
    fc.unix_socket_path = unique_socket_path();
    paths.push_back(fc.unix_socket_path);
    workers.push_back(std::make_unique<svc::FrameServer>(
        fc, worker_metrics, [](svc::FrameServer::Request& request) {
          return request.verb == "STATS"
                     ? std::string(R"({"status":"ok"})")
                     : svc::error_payload(svc::kErrShuttingDown, "worker is draining");
        }));
    workers.back()->start();
  }
  svc::RouterOptions ro = two_replica_router(paths[0], paths[1]);
  const std::string router_path = ro.unix_socket_path;
  svc::Router router(std::move(ro));
  router.start();
  svc::Client client = svc::Client::connect_unix(router_path);

  const json::Value load =
      client.request(R"({"verb":"LOAD","generator":{"family":"sprand","n":8,"m":16}})");
  EXPECT_EQ(load.string_or("code", ""), svc::kErrShuttingDown);
  for (const auto& snap : router.backend_snapshots()) {
    EXPECT_TRUE(snap.draining) << snap.name;
    EXPECT_EQ(snap.requests, 1u) << snap.name;
  }

  const json::Value stats = client.request(R"({"verb":"STATS","fanout":true})");
  ASSERT_EQ(stats.string_or("status", ""), "ok");
  for (const auto& snap : router.backend_snapshots()) {
    EXPECT_EQ(snap.requests, 2u) << snap.name;
    EXPECT_EQ(snap.failures, 0u) << snap.name;
  }
  router.stop_and_drain();
}

/// A raw-socket worker that reads one request frame per connection,
/// answers with a frame header plus half the announced payload, and
/// hangs up — a worker dying mid-response. It keeps accepting, so a
/// resend would be seen in `served`.
class HalfFrameWorker {
 public:
  HalfFrameWorker() : path_(unique_socket_path()) {
    listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path_.c_str(), sizeof addr.sun_path - 1);
    if (listen_fd_ < 0 ||
        ::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0 ||
        ::listen(listen_fd_, 8) != 0) {
      throw std::runtime_error("HalfFrameWorker: cannot listen on " + path_);
    }
    thread_ = std::thread([this] { serve(); });
  }
  ~HalfFrameWorker() {
    stop_.store(true);
    thread_.join();
    ::close(listen_fd_);
    ::unlink(path_.c_str());
  }
  HalfFrameWorker(const HalfFrameWorker&) = delete;
  HalfFrameWorker& operator=(const HalfFrameWorker&) = delete;

  [[nodiscard]] const std::string& path() const { return path_; }
  [[nodiscard]] int served() const { return served_.load(); }

 private:
  void serve() {
    while (!stop_.load()) {
      pollfd p{listen_fd_, POLLIN, 0};
      if (::poll(&p, 1, 20) <= 0) continue;
      const int fd = ::accept(listen_fd_, nullptr, nullptr);
      if (fd < 0) continue;
      std::string request;
      if (svc::read_frame(fd, svc::kDefaultMaxFrameBytes, request) ==
          svc::ReadStatus::kOk) {
        served_.fetch_add(1);
        const std::string frame =
            svc::encode_frame(R"({"status":"ok","note":"this answer is cut off"})");
        const std::size_t half = (frame.size() - svc::kHeaderBytes) / 2;
        (void)svc::write_full(fd, std::string_view(frame).substr(0, svc::kHeaderBytes + half));
      }
      ::close(fd);
    }
  }

  std::string path_;
  int listen_fd_ = -1;
  std::atomic<bool> stop_{false};
  std::atomic<int> served_{0};
  std::thread thread_;
};

TEST(RouterFleet, PartialResponseIsNeverResent) {
  // Hedge safety: once response bytes have arrived the worker may have
  // acted, so the router must not send the request again — not on
  // another replica, and not on a fresh connection to the same one.
  // The client gets the retryable UPSTREAM_UNAVAILABLE and decides.
  HalfFrameWorker a;
  HalfFrameWorker b;
  svc::RouterOptions ro = two_replica_router(a.path(), b.path());
  const std::string router_path = ro.unix_socket_path;
  svc::Router router(std::move(ro));
  router.start();

  svc::Client client = svc::Client::connect_unix(router_path);
  const json::Value r = client.request(kFingerprintSolve);
  EXPECT_EQ(r.string_or("code", ""), svc::kErrUpstream);
  EXPECT_EQ(a.served() + b.served(), 1);
  EXPECT_EQ(router.metrics().counter("mcr_router_partial_responses_total").value(), 1u);
  EXPECT_EQ(router.metrics().counter("mcr_router_failovers_total").value(), 0u);
  const auto snaps = router.backend_snapshots();
  ASSERT_EQ(snaps.size(), 2u);
  EXPECT_EQ(snaps[0].failures, static_cast<std::uint64_t>(a.served()));
  EXPECT_EQ(snaps[1].failures, static_cast<std::uint64_t>(b.served()));
  router.stop_and_drain();
}

// ---------------------------------------------------------------------------
// Guarded start, shared by both daemons through svc::FrameServer.

std::size_t open_fd_count() {
  std::size_t n = 0;
  for ([[maybe_unused]] const auto& entry :
       std::filesystem::directory_iterator("/proc/self/fd")) {
    ++n;
  }
  return n;
}

/// A start() that fails partway must leave no socket file (which would
/// shadow a later bind as "stale") and no open fd, must not report
/// running, and must not stop the same object from starting once
/// `clear_conflict` has removed the cause.
template <class Daemon>
void expect_failed_start_leaves_no_residue(Daemon& daemon, const std::string& socket_path,
                                           const std::function<void()>& clear_conflict) {
  const std::size_t fds_before = open_fd_count();
  EXPECT_THROW(daemon.start(), std::runtime_error);
  EXPECT_NE(::access(socket_path.c_str(), F_OK), 0) << "socket file left behind";
  EXPECT_EQ(open_fd_count(), fds_before) << "fds leaked by the failed start";
  EXPECT_FALSE(daemon.running());

  clear_conflict();
  daemon.start();
  EXPECT_TRUE(daemon.running());
  EXPECT_EQ(::access(socket_path.c_str(), F_OK), 0);
  daemon.stop_and_drain();
  EXPECT_NE(::access(socket_path.c_str(), F_OK), 0);
}

/// A live server holding an ephemeral TCP port, so a daemon configured
/// with that port fails its TCP bind after its unix listener has bound.
struct TakenTcpPort {
  TakenTcpPort() : holder(options()) { holder.start(); }
  static svc::ServerOptions options() {
    svc::ServerOptions so;
    so.tcp_port = 0;
    return so;
  }
  [[nodiscard]] int port() const { return holder.tcp_port(); }
  void release() { holder.stop_and_drain(); }

  svc::Server holder;
};

TEST(RouterStart, PartialStartFailureLeavesNoListenerResidue) {
  TakenTcpPort taken;
  ASSERT_GT(taken.port(), 0);
  svc::RouterOptions ro;
  ro.workers.push_back(svc::parse_backend_address("unix:/tmp/w_none.sock"));
  ro.unix_socket_path = unique_socket_path();
  ro.tcp_port = taken.port();  // taken: bind must fail
  ro.probe_interval_ms = 0.0;
  const std::string path = ro.unix_socket_path;
  svc::Router router(std::move(ro));
  expect_failed_start_leaves_no_residue(router, path, [&] { taken.release(); });
}

TEST(ServerStart, PartialStartFailureLeavesNoListenerResidue) {
  TakenTcpPort taken;
  ASSERT_GT(taken.port(), 0);
  svc::ServerOptions so;
  so.unix_socket_path = unique_socket_path();
  so.tcp_port = taken.port();  // taken: bind must fail
  svc::Server server(so);
  expect_failed_start_leaves_no_residue(server, so.unix_socket_path,
                                        [&] { taken.release(); });
}

TEST(ServerStart, UnopenableStatsOutLeavesNoListenerResidue) {
  const std::string dir = unique_socket_path() + ".d";  // does not exist yet
  svc::ServerOptions so;
  so.unix_socket_path = unique_socket_path();
  so.stats_interval_s = 1.0;
  so.stats_out_path = dir + "/stats.jsonl";
  svc::Server server(so);
  expect_failed_start_leaves_no_residue(server, so.unix_socket_path,
                                        [&] { ASSERT_EQ(::mkdir(dir.c_str(), 0700), 0); });
  std::filesystem::remove_all(dir);
}

TEST(RouterFleet, DrainingWorkerGetsNoNewRequests) {
  Fleet fleet(2);
  svc::Client client = fleet.client();
  const Graph g = make_ring(24, 5);
  const std::string fp = client.load_dimacs_text(dimacs_text(g));

  // A drained worker refuses its socket; requests that would have
  // landed there fail over and succeed elsewhere, silently.
  fleet.workers[0]->stop_and_drain();
  for (int i = 0; i < 6; ++i) {
    EXPECT_EQ(client.solve(fp).string_or("status", ""), "ok");
  }
}

// The TSan target: mixed verbs from many threads while a worker dies
// and the prober runs concurrently. Every response must be a complete,
// parseable frame (ok or a typed error) — no torn state, no crashes.
TEST(RouterFleet, ConcurrentMixedVerbsSurviveWorkerLoss) {
  svc::RouterOptions ro;
  ro.probe_interval_ms = 5.0;  // a real prober thread races the traffic
  Fleet fleet(3, std::move(ro));
  svc::Client setup = fleet.client();
  const Graph g = make_ring(24, 5);
  const std::string fp = setup.load_dimacs_text(dimacs_text(g));

  constexpr int kThreads = 8;
  constexpr int kPerThread = 24;
  std::atomic<int> malformed{0};
  std::atomic<int> started{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      svc::Client c = svc::Client::connect_unix(fleet.router_path);
      started.fetch_add(1);
      for (int i = 0; i < kPerThread; ++i) {
        try {
          json::Value r;
          switch ((t + i) % 4) {
            case 0:
              r = c.request(R"({"verb":"PING"})");
              break;
            case 1:
              r = c.solve(fp);
              break;
            case 2:
              r = c.request(R"({"verb":"STATS"})");
              break;
            default:
              r = c.health();
              break;
          }
          const std::string status = r.string_or("status", "");
          if (status != "ok" && status != "error") malformed.fetch_add(1);
        } catch (const svc::TransportError&) {
          // The router itself never dies in this test; a transport error
          // here would be a torn client connection — count it.
          malformed.fetch_add(1);
        }
      }
    });
  }
  while (started.load() < kThreads) std::this_thread::sleep_for(1ms);
  std::this_thread::sleep_for(10ms);
  fleet.workers[1]->stop_and_drain();  // chaos mid-traffic
  for (auto& th : threads) th.join();
  EXPECT_EQ(malformed.load(), 0);
}

}  // namespace
