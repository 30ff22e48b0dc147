// mcr::fault — deterministic, seeded fault injection for the solve
// stack.
//
// A FaultPlan is a PRNG-driven schedule of injection sites: allocation
// failure, socket read/write short-count / EINTR / ECONNRESET, thread
// pool worker stall / death, clock skips for deadline logic, and solver
// phase-boundary errors. Hooks are threaded through svc::Server,
// svc::Client, support::ThreadPool, and the solve driver's phase
// boundaries via the MCR_FAULT_POINT macro below.
//
// Determinism contract: the decision for evaluation #k at site S is a
// pure function of (plan.seed, S, k) — it does not depend on wall-clock
// time, thread identity, or scheduling. As long as the workload drives
// the same number of evaluations through each site (a sequential client
// against a fresh server does), the same seed reproduces the same
// injection trace bit-identically; trace() orders records by (site,
// per-site sequence) so cross-site thread interleaving cannot perturb
// the rendering. test_fault asserts this, and `mcr_chaos --repeat-check`
// verifies it end-to-end against a live server.
//
// Cost contract: when the library is built without MCR_FAULT_INJECTION
// (the Release default), MCR_FAULT_POINT expands to a constant and the
// Injector/decide_hook symbols are not compiled at all — tools/ci.sh
// asserts their absence from the Release archive with nm. The Plan
// parser stays available in every build so tools can explain that the
// hooks are compiled out instead of silently ignoring --plan.
#ifndef MCR_FAULT_FAULT_H
#define MCR_FAULT_FAULT_H

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace mcr::fault {

/// Where a fault can be injected.
enum class Site : std::uint8_t {
  kAlloc = 0,    // allocation boundary (request handling, job setup)
  kSockRead,     // one read() attempt inside a full-read helper
  kSockWrite,    // one send()/write() attempt inside a full-write helper
  kWorkerStall,  // thread-pool worker, drawn once per index it runs
  kWorkerDeath,  // thread-pool worker, drawn once per index it runs
  kClockSkip,    // deadline set-up (simulated clock jump)
  kPhase,        // driver phase boundary (per component solve)
};
inline constexpr std::size_t kNumSites = 7;
[[nodiscard]] const char* to_string(Site site);

/// What the hook should do. kNone is the universal "no fault" answer.
enum class Action : std::uint8_t {
  kNone = 0,
  kFail,   // alloc: throw std::bad_alloc; phase: throw std::runtime_error
  kShort,  // socket op: transfer at most 1 byte this attempt
  kEintr,  // socket op: fail with errno = EINTR, no syscall issued
  kReset,  // socket op: fail with errno = ECONNRESET, no syscall issued
  kStall,  // worker: sleep param milliseconds before the index
  kDeath,  // worker: exit the thread after the index (run() replaces it)
  kSkip,   // clock: move the deadline param milliseconds into the past
};
[[nodiscard]] const char* to_string(Action action);

/// One hook evaluation's outcome. `param` carries the action's
/// magnitude (stall / skip milliseconds); 0 otherwise.
struct Decision {
  Action action = Action::kNone;
  std::int64_t param = 0;
};

/// A seeded schedule of injection probabilities, one per site (socket
/// sites split by flavour). Parsed from the spec format documented in
/// docs/ROBUSTNESS.md: comma- or space-separated key=value pairs, e.g.
/// "seed=7,read_eintr=0.5,worker_death=0.02,max_per_site=100".
struct Plan {
  std::uint64_t seed = 1;
  // Per-evaluation firing probabilities in [0, 1].
  double alloc = 0.0;
  double read_short = 0.0;
  double read_eintr = 0.0;
  double read_reset = 0.0;
  double write_short = 0.0;
  double write_eintr = 0.0;
  double write_reset = 0.0;
  double worker_stall = 0.0;
  double worker_death = 0.0;
  double clock_skip = 0.0;
  double phase_error = 0.0;
  // Action magnitudes.
  std::int64_t stall_ms = 2;
  std::int64_t clock_skip_ms = 3'600'000;  // one hour: deterministic expiry
  // Caps on *fired* injections. max_per_site bounds every site (so a
  // probability-1.0 EINTR plan cannot livelock a retry loop forever);
  // max_deaths additionally bounds worker deaths.
  std::uint64_t max_per_site = std::uint64_t(-1);
  std::uint64_t max_deaths = 2;

  /// Parses the spec format above; throws std::invalid_argument naming
  /// the offending token on unknown keys or unparseable values.
  [[nodiscard]] static Plan parse(std::string_view spec);
  /// Canonical spec string (nonzero / non-default fields only);
  /// parse(to_string()) round-trips.
  [[nodiscard]] std::string to_string() const;
};

/// One fired injection. seq is the per-site evaluation index (0-based),
/// so a trace is reproducible from the seed alone.
struct Injection {
  Site site;
  std::uint64_t seq;
  Action action;
};

#if defined(MCR_FAULT_INJECTION) && MCR_FAULT_INJECTION

/// Evaluates a Plan and records the trace. Thread-safe; decisions are
/// serialized per-process (this is a test facility — determinism beats
/// throughput here).
class Injector {
 public:
  explicit Injector(Plan plan);
  ~Injector();

  Injector(const Injector&) = delete;
  Injector& operator=(const Injector&) = delete;

  /// Draws the next decision for `site`. Pure in (seed, site, per-site
  /// sequence number); appends to the trace when it fires.
  [[nodiscard]] Decision decide(Site site);

  [[nodiscard]] const Plan& plan() const { return plan_; }

  /// All fired injections, ordered by (site, seq) — deterministic for a
  /// deterministic workload regardless of thread interleaving.
  [[nodiscard]] std::vector<Injection> trace() const;
  /// Compact rendering: "sock_read#3:eintr;sock_read#9:short;...".
  [[nodiscard]] std::string trace_string() const;
  /// Total fired injections so far.
  [[nodiscard]] std::uint64_t fired_count() const;
  /// Fired injections at one site.
  [[nodiscard]] std::uint64_t fired_count(Site site) const;
  /// Hook evaluations (fired or not) at one site.
  [[nodiscard]] std::uint64_t evaluation_count(Site site) const;

  /// Installs `injector` as the process-global hook target (nullptr
  /// uninstalls). The constructor installs `this` if no injector is
  /// installed; the destructor uninstalls `this` if still current.
  static void install(Injector* injector);
  [[nodiscard]] static Injector* current();

 private:
  struct State;
  Plan plan_;
  std::unique_ptr<State> state_;
};

/// RAII: while alive, MCR_FAULT_POINT on *this thread* answers kNone
/// without consuming a sequence number. This lets a driver thread (the
/// mcr_chaos client) share a process with an injected server while
/// keeping the server threads' per-site numbering — and therefore the
/// trace — deterministic. Direct Injector::decide() calls are not
/// suppressed. Nestable.
class SuppressScope {
 public:
  SuppressScope();
  ~SuppressScope();
  SuppressScope(const SuppressScope&) = delete;
  SuppressScope& operator=(const SuppressScope&) = delete;
};

namespace detail {
/// The single symbol behind MCR_FAULT_POINT. Absent from builds without
/// MCR_FAULT_INJECTION (the ci.sh symbol-absence check keys on it).
[[nodiscard]] Decision decide_hook(Site site);
}  // namespace detail

#define MCR_FAULT_POINT(site) (::mcr::fault::detail::decide_hook(site))

#else  // !MCR_FAULT_INJECTION

/// No-op stand-in so callers compile unchanged without the hooks.
class SuppressScope {
 public:
  SuppressScope() {}
  ~SuppressScope() {}
  SuppressScope(const SuppressScope&) = delete;
  SuppressScope& operator=(const SuppressScope&) = delete;
};

#define MCR_FAULT_POINT(site) (::mcr::fault::Decision{})

#endif  // MCR_FAULT_INJECTION

}  // namespace mcr::fault

#endif  // MCR_FAULT_FAULT_H
