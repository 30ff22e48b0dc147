// A wave pool for the library's one parallel shape: run task(i) for
// every i in [0, n) and wait — per-SCC solves, batch instances, arc
// tiles and Karp formula chunks all hand it exactly that job.
//
// Design points:
//   * run(n, task) posts one wave record; the workers claim indices
//     from its shared counter until it is exhausted. The thread that
//     called run() never runs an index itself, so every index — and its
//     one worker_stall / worker_death draw — runs on a pool thread.
//   * run() returns as soon as the wave's finished count reaches n. A
//     worker that woke too late finds the counter exhausted and claims
//     nothing; the wave record is shared, so it stays valid for it.
//   * The pool guarantees nothing about execution order. Callers that
//     need deterministic output (the SCC driver does) must write
//     results into per-index slots and merge in a fixed order afterwards.
//   * Each index's exception is captured in its own slot and run()
//     rethrows the lowest-index one once the whole wave has run, so
//     failure behaviour does not depend on thread scheduling.
//   * A worker that dies (today only via fault injection,
//     Site::kWorkerDeath) marks itself dead before its index counts as
//     finished; the thread in run() joins and replaces it before run()
//     returns, so every wave starts on size() live workers. deaths()
//     counts replacements.
//   * One run() at a time: a task must not call run() on its own pool,
//     and two threads must not call run() on one pool at once.
#ifndef MCR_SUPPORT_THREAD_POOL_H
#define MCR_SUPPORT_THREAD_POOL_H

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
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

  /// Joins every worker (no wave is in flight outside run()).
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Runs task(i) for every i in [0, n) on the workers, waits for the
  /// last one, then rethrows the lowest-index exception, if any.
  void run(std::size_t n, const std::function<void(std::size_t)>& task);

  [[nodiscard]] int size() const { return static_cast<int>(workers_.size()); }

  /// Per-worker utilization counters for the observability layer.
  struct WorkerStats {
    std::uint64_t tasks_executed = 0;  // indices this worker slot ran
    double idle_seconds = 0.0;         // wall time spent parked between waves
  };

  /// Snapshot of every worker's stats, indexed by worker slot (a
  /// replacement continues its slot's counters). Counters are updated
  /// with relaxed atomics by the workers themselves; read after run()
  /// for totals consistent with the work run so far.
  [[nodiscard]] std::vector<WorkerStats> worker_stats() const;

  /// std::thread::hardware_concurrency with a floor of 1.
  [[nodiscard]] static int hardware_threads();

  /// Worker deaths survived by replacement (fault injection only).
  [[nodiscard]] std::uint64_t deaths() const {
    return deaths_.load(std::memory_order_relaxed);
  }

 private:
  struct Wave;
  struct Worker {
    std::atomic<std::uint64_t> tasks_executed{0};
    std::atomic<std::uint64_t> idle_nanos{0};
    std::thread thread;
  };

  /// Parks until a wave newer than `seen` is posted, runs the indices it
  /// claims, and repeats; returns on stop or when it dies.
  void worker_main(Worker& self, std::uint64_t seen);

  std::mutex mutex_;
  std::condition_variable wave_posted_;    // workers: a new wave, or stop
  std::condition_variable wave_progress_;  // run(): the last index, or a death
  std::shared_ptr<Wave> wave_;             // the wave in flight; guarded by mutex_
  std::uint64_t waves_posted_ = 0;         // guarded by mutex_
  std::vector<Worker*> dead_;              // guarded by mutex_
  bool stop_ = false;                      // guarded by mutex_
  std::atomic<std::uint64_t> deaths_{0};
  std::vector<std::unique_ptr<Worker>> workers_;
};

/// Runs task(0..n) either inline (null pool or a single item, where the
/// first exception propagates at once) or as one pool wave, which
/// rethrows the lowest-index exception after every index ran. The
/// caller owns the pool: sizing it, sharing it across waves, and
/// recording its metrics once at the end.
void run_indexed(ThreadPool* pool, std::size_t n,
                 const std::function<void(std::size_t)>& task);

}  // namespace mcr

#endif  // MCR_SUPPORT_THREAD_POOL_H
