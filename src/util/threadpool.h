// Fixed-size thread pool with a ParallelFor helper used by the heavier
// tensor kernels (batched gemm, full-catalog scoring) and the evaluators.

#ifndef UNIMATCH_UTIL_THREADPOOL_H_
#define UNIMATCH_UTIL_THREADPOOL_H_

#include <cstdint>
#include <functional>
#include <queue>
#include <thread>
#include <vector>

#include "src/util/mutex.h"

namespace unimatch {

/// A simple work-queue thread pool. Tasks must not throw.
///
/// Thread safety: fully thread-safe. The queue mutex ranks lowest in the
/// repo lock order (lockrank::kThreadPool) and is never held while a task
/// runs, so tasks may take any lock — including scheduling more work on
/// another pool — without ordering hazards.
class ThreadPool {
 public:
  /// Spawns `num_threads` workers (>=1). Defaults to hardware concurrency.
  explicit ThreadPool(int num_threads = 0);
  ~ThreadPool() UM_EXCLUDES(mu_);

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return static_cast<int>(workers_.size()); }

  /// Enqueues a task; returns immediately.
  void Schedule(std::function<void()> fn) UM_EXCLUDES(mu_);

  /// Blocks until every scheduled task has finished.
  void Wait() UM_EXCLUDES(mu_);

  /// Runs fn(i) for i in [begin, end), splitting the range into contiguous
  /// shards. The caller runs the first shard and the pool the rest; the
  /// call returns once its own shards are done, whatever else the pool is
  /// running. Falls back to a serial loop for tiny ranges.
  void ParallelFor(int64_t begin, int64_t end,
                   const std::function<void(int64_t)>& fn,
                   int64_t min_shard = 256) UM_EXCLUDES(mu_);

  /// Process-wide shared pool (lazily constructed).
  static ThreadPool* Global();

  /// True on any pool's worker thread, and on a ParallelFor caller while it
  /// runs its own shard. ParallelFor uses this to run nested invocations
  /// inline instead of deadlocking on the pool.
  static bool InWorkerThread();

 private:
  void WorkerLoop() UM_EXCLUDES(mu_);

  std::vector<std::thread> workers_;  // immutable after construction
  Mutex mu_{lockrank::kThreadPool, "util.threadpool"};
  CondVar cv_;       // workers wake on arrivals / shutdown
  CondVar idle_cv_;  // Wait() wakes when pending_ drains to zero
  std::queue<std::function<void()>> queue_ UM_GUARDED_BY(mu_);
  int64_t pending_ UM_GUARDED_BY(mu_) = 0;
  bool shutdown_ UM_GUARDED_BY(mu_) = false;
};

}  // namespace unimatch

#endif  // UNIMATCH_UTIL_THREADPOOL_H_
