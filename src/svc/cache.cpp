#include "svc/cache.h"

#include <condition_variable>
#include <stdexcept>

#include "obs/metrics.h"

namespace mcr::svc {

struct ResultCache::Flight {
  std::condition_variable cv;  // waits on ResultCache::mutex_
  bool done = false;
  CycleResult result;  // publish()
  double solve_ms = 0.0;
  std::string error_code;  // fail()
  std::string error_message;
};

ResultCache::ResultCache(std::size_t capacity, obs::MetricsRegistry* metrics)
    : capacity_(capacity == 0 ? 1 : capacity), metrics_(metrics) {}

ResultCache::Outcome ResultCache::acquire(const CacheKey& key) {
  Outcome out;
  {
    std::lock_guard lock(mutex_);
    if (const auto it = index_.find(key); it != index_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second);  // touch
      if (metrics_ != nullptr) metrics_->counter("mcr_cache_hits_total").add(1);
      out.result = it->second->result;
      out.solve_ms = it->second->solve_ms;
      return out;
    }
    const auto [it, lead] = flights_.try_emplace(key);
    if (lead) it->second = std::make_shared<Flight>();
    if (metrics_ != nullptr) {
      metrics_->counter(lead ? "mcr_cache_misses_total" : "mcr_singleflight_joins_total")
          .add(1);
    }
    out.role = lead ? Role::kLead : Role::kJoined;
    out.flight = it->second;
    if (lead) return out;
  }
  wait(out);
  return out;
}

void ResultCache::wait(Outcome& outcome) {
  Flight& flight = *outcome.flight;
  std::unique_lock lock(mutex_);
  flight.cv.wait(lock, [&] { return flight.done; });
  outcome.result = flight.result;
  outcome.solve_ms = flight.solve_ms;
  outcome.error_code = flight.error_code;
  outcome.error_message = flight.error_message;
}

void ResultCache::finish_flight(const CacheKey& key, const CycleResult* result,
                                double solve_ms, const std::string& code,
                                const std::string& message) {
  std::shared_ptr<Flight> flight;
  {
    std::lock_guard lock(mutex_);
    const auto it = flights_.find(key);
    if (it == flights_.end()) {
      throw std::logic_error("ResultCache: publish/fail without a flight");
    }
    flight = it->second;
    flights_.erase(it);
    if (result != nullptr) {
      lru_.push_front(Entry{key, *result, solve_ms});
      index_[key] = lru_.begin();
      while (lru_.size() > capacity_) {
        index_.erase(lru_.back().key);
        lru_.pop_back();
        if (metrics_ != nullptr) {
          metrics_->counter("mcr_cache_evictions_total").add(1);
        }
      }
      if (metrics_ != nullptr) {
        metrics_->gauge("mcr_cache_entries").set(static_cast<std::int64_t>(lru_.size()));
      }
      flight->result = *result;
      flight->solve_ms = solve_ms;
    }
    flight->error_code = code;
    flight->error_message = message;
    flight->done = true;
  }
  flight->cv.notify_all();
}

void ResultCache::publish(const CacheKey& key, const CycleResult& result,
                          double solve_ms) {
  finish_flight(key, &result, solve_ms, "", "");
}

void ResultCache::fail(const CacheKey& key, const std::string& code,
                       const std::string& message) {
  finish_flight(key, nullptr, 0.0, code, message);
}

std::size_t ResultCache::size() const {
  std::lock_guard lock(mutex_);
  return lru_.size();
}

}  // namespace mcr::svc
