// LRU result cache with single-flight deduplication.
//
// The service's hot case — the CAD motivation from the paper — is the
// same (graph, objective, algorithm) query arriving many times, often
// concurrently, while a timing loop iterates. Two mechanisms cover it:
//
//   * LRU cache: completed results keyed by (fingerprint, objective,
//     algorithm). Results are thread-count independent (the driver's
//     deterministic-merge contract), so the key needs no execution
//     parameters.
//   * Single-flight: when a key misses while an identical request is
//     already solving, the newcomer joins that flight and waits for its
//     result instead of solving again. Exactly one caller per key is
//     ever told to solve (the "leader"); it hands the solve off and
//     then waits on the same flight, through the same wait().
//
// Failures (BUSY rejection, deadline, solver error) complete a flight
// with an error: every joiner receives it, and nothing is cached —
// transient conditions must not poison future requests.
#ifndef MCR_SVC_CACHE_H
#define MCR_SVC_CACHE_H

#include <cstddef>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "core/result.h"

namespace mcr::obs {
class MetricsRegistry;
}  // namespace mcr::obs

namespace mcr::svc {

/// Cache identity of one solve request.
struct CacheKey {
  std::string fingerprint;  // graph content address (Fingerprint::hex)
  std::string objective;    // min_mean / min_ratio / max_mean / max_ratio
  std::string algorithm;    // registry solver name

  friend auto operator<=>(const CacheKey&, const CacheKey&) = default;
};

class ResultCache {
 public:
  /// `capacity` = max completed entries retained (LRU eviction beyond).
  /// When `metrics` is set the cache maintains mcr_cache_hits_total,
  /// mcr_cache_misses_total, mcr_cache_evictions_total,
  /// mcr_singleflight_joins_total, and the mcr_cache_entries gauge.
  explicit ResultCache(std::size_t capacity,
                       obs::MetricsRegistry* metrics = nullptr);

  enum class Role {
    kHit,     // result served from cache
    kLead,    // caller must solve (or hand off), then publish() or fail()
    kJoined,  // waited on another caller's flight; result or error below
  };

  /// One in-progress solve of a key; defined in cache.cpp.
  struct Flight;

  struct Outcome {
    Role role = Role::kHit;
    CycleResult result;     // kHit, or a completed flight with empty error
    double solve_ms = 0.0;  // wall time of the solve that produced result
    std::string error_code;     // completed flight only; empty = success
    std::string error_message;  // completed flight only
    std::shared_ptr<Flight> flight;  // kLead and kJoined: the flight waited on
  };

  /// Looks the key up. kHit returns immediately; kLead makes the caller
  /// responsible for exactly one publish()/fail() with the same key and
  /// returns without waiting; kJoined blocks in wait() until the flight
  /// completes.
  [[nodiscard]] Outcome acquire(const CacheKey& key);

  /// Blocks until the outcome's flight completes and copies its result
  /// (or error) into the outcome. Joiners get here through acquire(); a
  /// leader that handed its solve to another thread calls it directly.
  void wait(Outcome& outcome);

  /// Completes the caller's flight with a result: inserts it into the
  /// LRU (evicting the coldest entry beyond capacity) and wakes joiners.
  void publish(const CacheKey& key, const CycleResult& result, double solve_ms);

  /// Completes the caller's flight with an error: wakes joiners with
  /// (code, message); nothing is cached. `code` must not be empty.
  void fail(const CacheKey& key, const std::string& code, const std::string& message);

  [[nodiscard]] std::size_t size() const;

 private:
  struct Entry {
    CacheKey key;
    CycleResult result;
    double solve_ms = 0.0;
  };

  /// result == nullptr completes the flight with (code, message).
  void finish_flight(const CacheKey& key, const CycleResult* result, double solve_ms,
                     const std::string& code, const std::string& message);

  std::size_t capacity_;
  obs::MetricsRegistry* metrics_;
  mutable std::mutex mutex_;
  std::list<Entry> lru_;  // front = hottest
  std::map<CacheKey, std::list<Entry>::iterator> index_;
  std::map<CacheKey, std::shared_ptr<Flight>> flights_;
};

}  // namespace mcr::svc

#endif  // MCR_SVC_CACHE_H
