#include "fault/fault.h"

#include <array>
#include <atomic>
#include <algorithm>
#include <charconv>
#include <mutex>
#include <sstream>
#include <stdexcept>

#include "support/prng.h"

namespace mcr::fault {

const char* to_string(Site site) {
  switch (site) {
    case Site::kAlloc: return "alloc";
    case Site::kSockRead: return "sock_read";
    case Site::kSockWrite: return "sock_write";
    case Site::kWorkerStall: return "worker_stall";
    case Site::kWorkerDeath: return "worker_death";
    case Site::kClockSkip: return "clock_skip";
    case Site::kPhase: return "phase";
  }
  return "?";
}

const char* to_string(Action action) {
  switch (action) {
    case Action::kNone: return "none";
    case Action::kFail: return "fail";
    case Action::kShort: return "short";
    case Action::kEintr: return "eintr";
    case Action::kReset: return "reset";
    case Action::kStall: return "stall";
    case Action::kDeath: return "death";
    case Action::kSkip: return "skip";
  }
  return "?";
}

namespace {

double parse_prob(std::string_view key, std::string_view text) {
  double v = 0.0;
  const auto [ptr, ec] = std::from_chars(text.data(), text.data() + text.size(), v);
  if (ec != std::errc{} || ptr != text.data() + text.size() || v < 0.0 || v > 1.0) {
    throw std::invalid_argument("FaultPlan: bad probability for '" + std::string(key) +
                                "': '" + std::string(text) + "' (want [0,1])");
  }
  return v;
}

std::uint64_t parse_u64(std::string_view key, std::string_view text) {
  std::uint64_t v = 0;
  const auto [ptr, ec] = std::from_chars(text.data(), text.data() + text.size(), v);
  if (ec != std::errc{} || ptr != text.data() + text.size()) {
    throw std::invalid_argument("FaultPlan: bad integer for '" + std::string(key) +
                                "': '" + std::string(text) + "'");
  }
  return v;
}

}  // namespace

Plan Plan::parse(std::string_view spec) {
  Plan plan;
  std::size_t pos = 0;
  while (pos < spec.size()) {
    while (pos < spec.size() && (spec[pos] == ',' || spec[pos] == ' ')) ++pos;
    if (pos >= spec.size()) break;
    std::size_t end = spec.find_first_of(", ", pos);
    if (end == std::string_view::npos) end = spec.size();
    const std::string_view token = spec.substr(pos, end - pos);
    pos = end;
    const std::size_t eq = token.find('=');
    if (eq == std::string_view::npos) {
      throw std::invalid_argument("FaultPlan: token '" + std::string(token) +
                                  "' is not key=value");
    }
    const std::string_view key = token.substr(0, eq);
    const std::string_view value = token.substr(eq + 1);
    if (key == "seed") plan.seed = parse_u64(key, value);
    else if (key == "alloc") plan.alloc = parse_prob(key, value);
    else if (key == "read_short") plan.read_short = parse_prob(key, value);
    else if (key == "read_eintr") plan.read_eintr = parse_prob(key, value);
    else if (key == "read_reset") plan.read_reset = parse_prob(key, value);
    else if (key == "write_short") plan.write_short = parse_prob(key, value);
    else if (key == "write_eintr") plan.write_eintr = parse_prob(key, value);
    else if (key == "write_reset") plan.write_reset = parse_prob(key, value);
    else if (key == "worker_stall") plan.worker_stall = parse_prob(key, value);
    else if (key == "worker_death") plan.worker_death = parse_prob(key, value);
    else if (key == "clock_skip") plan.clock_skip = parse_prob(key, value);
    else if (key == "phase") plan.phase_error = parse_prob(key, value);
    else if (key == "stall_ms")
      plan.stall_ms = static_cast<std::int64_t>(parse_u64(key, value));
    else if (key == "clock_skip_ms")
      plan.clock_skip_ms = static_cast<std::int64_t>(parse_u64(key, value));
    else if (key == "max_per_site") plan.max_per_site = parse_u64(key, value);
    else if (key == "max_deaths") plan.max_deaths = parse_u64(key, value);
    else {
      throw std::invalid_argument("FaultPlan: unknown key '" + std::string(key) + "'");
    }
  }
  return plan;
}

std::string Plan::to_string() const {
  std::ostringstream os;
  os << "seed=" << seed;
  const auto prob = [&](const char* key, double v) {
    if (v > 0.0) os << ',' << key << '=' << v;
  };
  prob("alloc", alloc);
  prob("read_short", read_short);
  prob("read_eintr", read_eintr);
  prob("read_reset", read_reset);
  prob("write_short", write_short);
  prob("write_eintr", write_eintr);
  prob("write_reset", write_reset);
  prob("worker_stall", worker_stall);
  prob("worker_death", worker_death);
  prob("clock_skip", clock_skip);
  prob("phase", phase_error);
  const Plan defaults;
  if (stall_ms != defaults.stall_ms) os << ",stall_ms=" << stall_ms;
  if (clock_skip_ms != defaults.clock_skip_ms) os << ",clock_skip_ms=" << clock_skip_ms;
  if (max_per_site != defaults.max_per_site) os << ",max_per_site=" << max_per_site;
  if (max_deaths != defaults.max_deaths) os << ",max_deaths=" << max_deaths;
  return os.str();
}

#if defined(MCR_FAULT_INJECTION) && MCR_FAULT_INJECTION

namespace {

std::atomic<Injector*> g_injector{nullptr};

thread_local int g_suppress_depth = 0;

/// The per-decision uniform draw. Pure in its input (splitmix64), so
/// the k-th decision at a site depends only on (seed, site, k).
double uniform01(std::uint64_t seed, Site site, std::uint64_t seq) {
  const std::uint64_t h = splitmix64(
      splitmix64(seed ^ (0xa076'1d64'78bd'642fULL * (static_cast<std::uint64_t>(site) + 1))) ^
      seq);
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

}  // namespace

struct Injector::State {
  mutable std::mutex mutex;
  std::array<std::uint64_t, kNumSites> evaluations{};
  std::array<std::uint64_t, kNumSites> fired{};
  std::vector<Injection> trace;
};

Injector::Injector(Plan plan) : plan_(plan), state_(std::make_unique<State>()) {
  Injector* expected = nullptr;
  g_injector.compare_exchange_strong(expected, this);
}

Injector::~Injector() {
  Injector* expected = this;
  g_injector.compare_exchange_strong(expected, nullptr);
}

void Injector::install(Injector* injector) { g_injector.store(injector); }

Injector* Injector::current() { return g_injector.load(std::memory_order_acquire); }

Decision Injector::decide(Site site) {
  const auto s = static_cast<std::size_t>(site);
  std::lock_guard lock(state_->mutex);
  const std::uint64_t seq = state_->evaluations[s]++;
  const double u = uniform01(plan_.seed, site, seq);

  Action action = Action::kNone;
  std::int64_t param = 0;
  switch (site) {
    case Site::kAlloc:
      if (u < plan_.alloc) action = Action::kFail;
      break;
    case Site::kSockRead:
      if (u < plan_.read_eintr) action = Action::kEintr;
      else if (u < plan_.read_eintr + plan_.read_short) action = Action::kShort;
      else if (u < plan_.read_eintr + plan_.read_short + plan_.read_reset)
        action = Action::kReset;
      break;
    case Site::kSockWrite:
      if (u < plan_.write_eintr) action = Action::kEintr;
      else if (u < plan_.write_eintr + plan_.write_short) action = Action::kShort;
      else if (u < plan_.write_eintr + plan_.write_short + plan_.write_reset)
        action = Action::kReset;
      break;
    case Site::kWorkerStall:
      if (u < plan_.worker_stall) {
        action = Action::kStall;
        param = plan_.stall_ms;
      }
      break;
    case Site::kWorkerDeath:
      if (u < plan_.worker_death) action = Action::kDeath;
      break;
    case Site::kClockSkip:
      if (u < plan_.clock_skip) {
        action = Action::kSkip;
        param = plan_.clock_skip_ms;
      }
      break;
    case Site::kPhase:
      if (u < plan_.phase_error) action = Action::kFail;
      break;
  }

  if (action != Action::kNone) {
    std::uint64_t cap = plan_.max_per_site;
    if (site == Site::kWorkerDeath) cap = std::min(cap, plan_.max_deaths);
    if (state_->fired[s] >= cap) {
      return Decision{};  // capped: deterministic, since fired[s] is per-site
    }
    ++state_->fired[s];
    state_->trace.push_back(Injection{site, seq, action});
  }
  return Decision{action, param};
}

std::vector<Injection> Injector::trace() const {
  std::vector<Injection> out;
  {
    std::lock_guard lock(state_->mutex);
    out = state_->trace;
  }
  std::sort(out.begin(), out.end(), [](const Injection& a, const Injection& b) {
    if (a.site != b.site) return a.site < b.site;
    return a.seq < b.seq;
  });
  return out;
}

std::string Injector::trace_string() const {
  std::ostringstream os;
  bool first = true;
  for (const Injection& i : trace()) {
    if (!first) os << ';';
    first = false;
    os << to_string(i.site) << '#' << i.seq << ':' << to_string(i.action);
  }
  return os.str();
}

std::uint64_t Injector::fired_count() const {
  std::lock_guard lock(state_->mutex);
  return state_->trace.size();
}

std::uint64_t Injector::fired_count(Site site) const {
  std::lock_guard lock(state_->mutex);
  return state_->fired[static_cast<std::size_t>(site)];
}

std::uint64_t Injector::evaluation_count(Site site) const {
  std::lock_guard lock(state_->mutex);
  return state_->evaluations[static_cast<std::size_t>(site)];
}

SuppressScope::SuppressScope() { ++g_suppress_depth; }

SuppressScope::~SuppressScope() { --g_suppress_depth; }

namespace detail {

Decision decide_hook(Site site) {
  if (g_suppress_depth > 0) return Decision{};
  Injector* injector = Injector::current();
  return injector == nullptr ? Decision{} : injector->decide(site);
}

}  // namespace detail

#endif  // MCR_FAULT_INJECTION

}  // namespace mcr::fault
