// A small work-stealing thread pool for embarrassingly parallel solver
// work (per-SCC solves, batch instance solves).
//
// Design points:
//   * Each worker owns a deque; submit() distributes round-robin. A
//     worker pops from the front of its own deque and steals from the
//     back of a victim's, so contention only appears when a worker runs
//     dry — the classic Chase-Lev discipline, here with plain mutexes
//     because pool tasks (whole SCC solves) are microseconds at minimum
//     and queue traffic is negligible against them.
//   * The pool guarantees nothing about execution order. Callers that
//     need deterministic output (the SCC driver does) must write
//     results into per-task slots and merge in a fixed order afterwards.
//   * Exceptions must not escape a task; wrap the body and capture a
//     std::exception_ptr per slot (run_indexed below does exactly that).
//     As a last line of defense the pool contains (swallows and counts
//     in task_exceptions()) anything that does escape, so a buggy task
//     degrades one result instead of std::terminate-ing the process.
//   * Workers are self-healing: a worker that dies mid-service (today
//     only via fault injection, Site::kWorkerDeath) retires its own
//     thread handle and installs a replacement on the same deque, so
//     pending tasks are never stranded. deaths() counts respawns.
#ifndef MCR_SUPPORT_THREAD_POOL_H
#define MCR_SUPPORT_THREAD_POOL_H

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace mcr {

class ThreadPool {
 public:
  /// Spawns `num_threads` workers; 0 means hardware_threads().
  explicit ThreadPool(int num_threads = 0);

  /// Joins all workers after draining every submitted task.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task. Thread-safe; tasks may themselves submit.
  void submit(std::function<void()> task);

  /// Blocks until every task submitted so far has finished executing.
  void wait_idle();

  [[nodiscard]] int size() const { return static_cast<int>(threads_.size()); }

  /// Per-worker utilization counters for the observability layer.
  struct WorkerStats {
    std::uint64_t tasks_executed = 0;  // tasks this worker ran (own + stolen)
    std::uint64_t steals = 0;          // of those, taken from a victim's deque
    double idle_seconds = 0.0;         // wall time spent parked waiting for work
  };

  /// Snapshot of every worker's stats, indexed by worker. Counters are
  /// updated with relaxed atomics by the workers themselves; read after
  /// wait_idle() for totals consistent with the submitted work (a
  /// sleeping worker's idle_seconds grows until it next wakes).
  [[nodiscard]] std::vector<WorkerStats> worker_stats() const;

  /// std::thread::hardware_concurrency with a floor of 1.
  [[nodiscard]] static int hardware_threads();

  /// Tasks whose exceptions escaped into the pool (contained, counted).
  [[nodiscard]] std::uint64_t task_exceptions() const {
    return task_exceptions_.load(std::memory_order_relaxed);
  }
  /// Worker deaths survived by respawning (fault injection only).
  [[nodiscard]] std::uint64_t deaths() const {
    return deaths_.load(std::memory_order_relaxed);
  }

 private:
  struct Worker {
    std::mutex mutex;
    std::deque<std::function<void()>> tasks;
    std::atomic<std::uint64_t> tasks_executed{0};
    std::atomic<std::uint64_t> steals{0};
    std::atomic<std::uint64_t> idle_nanos{0};
    /// Set by run_one (owning thread only) when a kWorkerDeath decision
    /// fired; worker_main acts on it between tasks.
    bool die_pending = false;
  };

  void worker_main(std::size_t self);
  /// Pops own front or steals a victim's back; runs at most one task.
  bool run_one(std::size_t self);
  /// Moves the caller's own thread handle to retired_ and installs a
  /// replacement worker on the same slot/deque. Returns false (death
  /// declined) when the pool is already stopping.
  bool retire_and_respawn(std::size_t self);

  std::vector<std::unique_ptr<Worker>> workers_;
  /// Guards threads_ and retired_ against the destructor racing a
  /// dying worker's respawn.
  std::mutex threads_mutex_;
  std::vector<std::thread> retired_;
  std::atomic<std::uint64_t> task_exceptions_{0};
  std::atomic<std::uint64_t> deaths_{0};
  std::vector<std::thread> threads_;
  std::mutex sleep_mutex_;
  std::condition_variable work_available_;
  std::condition_variable all_done_;
  std::atomic<std::size_t> queued_{0};      // submitted, not yet popped
  std::atomic<std::size_t> unfinished_{0};  // submitted, not yet completed
  std::atomic<std::size_t> next_worker_{0};
  std::atomic<bool> stop_{false};
};

/// Runs task(0..n) either inline (null pool or a single item) or as
/// pool tasks, then waits for them. Exceptions are captured per slot and
/// the lowest-index one is rethrown, so failure behaviour does not
/// depend on thread scheduling. The caller owns the pool: sizing it,
/// sharing it across waves, and recording its metrics once at the end.
void run_indexed(ThreadPool* pool, std::size_t n,
                 const std::function<void(std::size_t)>& task);

}  // namespace mcr

#endif  // MCR_SUPPORT_THREAD_POOL_H
