#include "support/thread_pool.h"

#include <chrono>
#include <exception>
#include <utility>

#include "fault/fault.h"

namespace mcr {

int ThreadPool::hardware_threads() {
  const unsigned h = std::thread::hardware_concurrency();
  return h == 0 ? 1 : static_cast<int>(h);
}

ThreadPool::ThreadPool(int num_threads) {
  if (num_threads <= 0) num_threads = hardware_threads();
  workers_.reserve(static_cast<std::size_t>(num_threads));
  for (int i = 0; i < num_threads; ++i) {
    workers_.push_back(std::make_unique<Worker>());
  }
  threads_.reserve(static_cast<std::size_t>(num_threads));
  for (int i = 0; i < num_threads; ++i) {
    threads_.emplace_back([this, i] { worker_main(static_cast<std::size_t>(i)); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lk(sleep_mutex_);
    stop_.store(true, std::memory_order_relaxed);
  }
  work_available_.notify_all();
  // Collect handles under threads_mutex_: once stop_ is set a dying
  // worker declines its death (retire_and_respawn checks stop_ under
  // the same mutex), so the set of handles is final after this move.
  std::vector<std::thread> to_join;
  {
    std::lock_guard<std::mutex> lk(threads_mutex_);
    to_join = std::move(threads_);
    for (std::thread& t : retired_) to_join.push_back(std::move(t));
    retired_.clear();
  }
  for (std::thread& t : to_join) {
    if (t.joinable()) t.join();
  }
}

void ThreadPool::submit(std::function<void()> task) {
  const std::size_t w =
      next_worker_.fetch_add(1, std::memory_order_relaxed) % workers_.size();
  unfinished_.fetch_add(1, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lk(workers_[w]->mutex);
    workers_[w]->tasks.push_back(std::move(task));
  }
  queued_.fetch_add(1, std::memory_order_release);
  {
    // Taking the sleep mutex serializes against a worker that has just
    // found every deque empty and is about to wait — without it the
    // notify could fire in that window and be lost.
    std::lock_guard<std::mutex> lk(sleep_mutex_);
  }
  work_available_.notify_one();
}

bool ThreadPool::run_one(std::size_t self) {
  std::function<void()> task;
  const std::size_t k = workers_.size();
  for (std::size_t i = 0; i < k; ++i) {
    Worker& victim = *workers_[(self + i) % k];
    std::lock_guard<std::mutex> lk(victim.mutex);
    if (victim.tasks.empty()) continue;
    if (i == 0) {  // own deque: front (LIFO locality)
      task = std::move(victim.tasks.front());
      victim.tasks.pop_front();
    } else {  // steal: opposite end
      task = std::move(victim.tasks.back());
      victim.tasks.pop_back();
      workers_[self]->steals.fetch_add(1, std::memory_order_relaxed);
    }
    break;
  }
  if (!task) return false;
  queued_.fetch_sub(1, std::memory_order_relaxed);
  // One stall/death draw per task (not per scheduling loop), so a given
  // fault plan injects the same number of worker faults regardless of
  // how the OS interleaves the workers.
  const fault::Decision stall = MCR_FAULT_POINT(fault::Site::kWorkerStall);
  if (stall.action == fault::Action::kStall) {
    std::this_thread::sleep_for(std::chrono::milliseconds(stall.param));
  }
  try {
    task();
  } catch (...) {
    // Tasks own their error channel (core/driver.cpp captures a
    // per-slot exception_ptr); anything reaching here would otherwise
    // std::terminate the process, so contain and count it.
    task_exceptions_.fetch_add(1, std::memory_order_relaxed);
  }
  workers_[self]->tasks_executed.fetch_add(1, std::memory_order_relaxed);
  if (MCR_FAULT_POINT(fault::Site::kWorkerDeath).action == fault::Action::kDeath) {
    workers_[self]->die_pending = true;
  }
  if (unfinished_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    std::lock_guard<std::mutex> lk(sleep_mutex_);
    all_done_.notify_all();
  }
  return true;
}

bool ThreadPool::retire_and_respawn(std::size_t self) {
  std::lock_guard<std::mutex> lk(threads_mutex_);
  if (stop_.load(std::memory_order_relaxed)) return false;  // shutting down
  deaths_.fetch_add(1, std::memory_order_relaxed);
  // Moving our own handle is safe (it does not touch the running
  // thread); the destructor joins it from retired_. The replacement
  // inherits this worker's slot and therefore its deque — no task is
  // stranded by the death.
  retired_.push_back(std::move(threads_[self]));
  threads_[self] = std::thread([this, self] { worker_main(self); });
  return true;
}

void ThreadPool::worker_main(std::size_t self) {
  for (;;) {
    if (run_one(self)) {
      if (workers_[self]->die_pending) {
        workers_[self]->die_pending = false;
        if (retire_and_respawn(self)) return;  // this thread "crashes"
      }
      continue;
    }
    // Idle accounting brackets the park only (two clock reads on a path
    // where the worker found every deque empty — noise next to a solve).
    const auto idle_start = std::chrono::steady_clock::now();
    {
      std::unique_lock<std::mutex> lk(sleep_mutex_);
      work_available_.wait(lk, [this] {
        return stop_.load(std::memory_order_relaxed) ||
               queued_.load(std::memory_order_acquire) > 0;
      });
    }
    workers_[self]->idle_nanos.fetch_add(
        static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - idle_start)
                .count()),
        std::memory_order_relaxed);
    if (stop_.load(std::memory_order_relaxed) &&
        queued_.load(std::memory_order_acquire) == 0) {
      return;
    }
  }
}

std::vector<ThreadPool::WorkerStats> ThreadPool::worker_stats() const {
  std::vector<WorkerStats> out;
  out.reserve(workers_.size());
  for (const auto& w : workers_) {
    WorkerStats s;
    s.tasks_executed = w->tasks_executed.load(std::memory_order_relaxed);
    s.steals = w->steals.load(std::memory_order_relaxed);
    s.idle_seconds =
        static_cast<double>(w->idle_nanos.load(std::memory_order_relaxed)) * 1e-9;
    out.push_back(s);
  }
  return out;
}

void ThreadPool::wait_idle() {
  std::unique_lock<std::mutex> lk(sleep_mutex_);
  all_done_.wait(lk,
                 [this] { return unfinished_.load(std::memory_order_acquire) == 0; });
}

void run_indexed(ThreadPool* pool, std::size_t n,
                 const std::function<void(std::size_t)>& task) {
  if (pool == nullptr || n <= 1) {
    for (std::size_t i = 0; i < n; ++i) task(i);
    return;
  }
  std::vector<std::exception_ptr> errors(n);
  for (std::size_t i = 0; i < n; ++i) {
    pool->submit([&task, &errors, i] {
      try {
        task(i);
      } catch (...) {
        errors[i] = std::current_exception();
      }
    });
  }
  pool->wait_idle();
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

}  // namespace mcr
