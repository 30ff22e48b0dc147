#include "support/thread_pool.h"

#include <chrono>
#include <exception>
#include <utility>

#include "fault/fault.h"

namespace mcr {

/// One run() call. Shared between run() and the workers that joined it,
/// so a worker that claims nothing may still touch `next` after run()
/// has returned; `task` is called only for claimed indices, all of
/// which finish before run() returns.
struct ThreadPool::Wave {
  Wave(std::size_t count, const std::function<void(std::size_t)>& fn)
      : task(fn), n(count), errors(count) {}

  const std::function<void(std::size_t)>& task;
  const std::size_t n;
  std::atomic<std::size_t> next{0};      // next index to claim
  std::atomic<std::size_t> finished{0};  // indices run to completion
  std::vector<std::exception_ptr> errors;  // slot i written by i's worker only
};

int ThreadPool::hardware_threads() {
  const unsigned h = std::thread::hardware_concurrency();
  return h == 0 ? 1 : static_cast<int>(h);
}

ThreadPool::ThreadPool(int num_threads) {
  if (num_threads <= 0) num_threads = hardware_threads();
  workers_.reserve(static_cast<std::size_t>(num_threads));
  for (int i = 0; i < num_threads; ++i) {
    Worker& w = *workers_.emplace_back(std::make_unique<Worker>());
    w.thread = std::thread([this, &w] { worker_main(w, 0); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard<std::mutex> lk(mutex_);
    stop_ = true;
  }
  wave_posted_.notify_all();
  // run() replaced every dead worker before it returned, so each slot
  // holds exactly one live thread.
  for (const auto& w : workers_) w->thread.join();
}

void ThreadPool::run(std::size_t n, const std::function<void(std::size_t)>& task) {
  if (n == 0) return;
  const auto wave = std::make_shared<Wave>(n, task);
  {
    const std::lock_guard<std::mutex> lk(mutex_);
    wave_ = wave;
    ++waves_posted_;
  }
  wave_posted_.notify_all();
  {
    std::unique_lock<std::mutex> lk(mutex_);
    for (;;) {
      wave_progress_.wait(lk, [&] { return !dead_.empty() || wave->finished == n; });
      // A death mid-wave is replaced at once and the replacement, not
      // having seen this wave, joins it: a wave never runs out of
      // workers. The dead thread takes no lock after marking itself
      // dead, so joining it with mutex_ held cannot deadlock.
      for (Worker* w : dead_) {
        w->thread.join();
        w->thread =
            std::thread([this, w, seen = waves_posted_ - 1] { worker_main(*w, seen); });
        deaths_.fetch_add(1, std::memory_order_relaxed);
      }
      dead_.clear();
      if (wave->finished == n) break;
    }
    wave_.reset();
  }
  // A late worker may hold the record's last reference; the exceptions
  // leave it so that this thread, which rethrows them, also frees them.
  const std::vector<std::exception_ptr> errors = std::move(wave->errors);
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

void ThreadPool::worker_main(Worker& self, std::uint64_t seen) {
  for (;;) {
    std::shared_ptr<Wave> wave;
    const auto idle_start = std::chrono::steady_clock::now();
    {
      std::unique_lock<std::mutex> lk(mutex_);
      wave_posted_.wait(lk, [&] { return stop_ || waves_posted_ != seen; });
      if (stop_) return;
      seen = waves_posted_;
      wave = wave_;
    }
    self.idle_nanos.fetch_add(
        static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                       std::chrono::steady_clock::now() - idle_start)
                                       .count()),
        std::memory_order_relaxed);
    if (!wave) continue;  // woke after run() returned

    for (std::size_t i = wave->next++; i < wave->n; i = wave->next++) {
      // One stall/death draw per index, so a given fault plan injects
      // the same number of worker faults however the OS interleaves
      // the workers.
      const fault::Decision stall = MCR_FAULT_POINT(fault::Site::kWorkerStall);
      if (stall.action == fault::Action::kStall) {
        std::this_thread::sleep_for(std::chrono::milliseconds(stall.param));
      }
      try {
        wave->task(i);
      } catch (...) {
        wave->errors[i] = std::current_exception();
      }
      self.tasks_executed.fetch_add(1, std::memory_order_relaxed);
      if (MCR_FAULT_POINT(fault::Site::kWorkerDeath).action == fault::Action::kDeath) {
        // Dead before finished: run() cannot return without replacing us.
        const std::lock_guard<std::mutex> lk(mutex_);
        dead_.push_back(&self);
        ++wave->finished;
        wave_progress_.notify_one();
        return;  // this thread "crashes"
      }
      if (++wave->finished == wave->n) {
        // Taking mutex_ orders this notify after run()'s predicate check.
        const std::lock_guard<std::mutex> lk(mutex_);
        wave_progress_.notify_one();
      }
    }
  }
}

std::vector<ThreadPool::WorkerStats> ThreadPool::worker_stats() const {
  std::vector<WorkerStats> out;
  out.reserve(workers_.size());
  for (const auto& w : workers_) {
    WorkerStats s;
    s.tasks_executed = w->tasks_executed.load(std::memory_order_relaxed);
    s.idle_seconds =
        static_cast<double>(w->idle_nanos.load(std::memory_order_relaxed)) * 1e-9;
    out.push_back(s);
  }
  return out;
}

void run_indexed(ThreadPool* pool, std::size_t n,
                 const std::function<void(std::size_t)>& task) {
  if (pool == nullptr || n <= 1) {
    for (std::size_t i = 0; i < n; ++i) task(i);
    return;
  }
  pool->run(n, task);
}

}  // namespace mcr
