#include "src/util/threadpool.h"

#include <algorithm>

#include "src/util/contract.h"
#include "src/util/logging.h"

namespace unimatch {

namespace {
// Set for the lifetime of any pool's worker thread, and on a ParallelFor
// caller while it runs its own shard. ParallelFor called from either runs
// its loop inline: waiting on a pool from one of its own workers would
// deadlock, and nested parallelism only oversubscribes.
thread_local bool tls_in_pool_worker = false;
}  // namespace

bool ThreadPool::InWorkerThread() { return tls_in_pool_worker; }

ThreadPool::ThreadPool(int num_threads) {
  if (num_threads <= 0) {
    num_threads = static_cast<int>(std::thread::hardware_concurrency());
    if (num_threads <= 0) num_threads = 4;
  }
  workers_.reserve(num_threads);
  for (int i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(&mu_);
    shutdown_ = true;
  }
  cv_.NotifyAll();
  for (auto& w : workers_) w.join();
}

void ThreadPool::Schedule(std::function<void()> fn) {
  {
    MutexLock lock(&mu_);
    UM_CHECK(!shutdown_);
    queue_.push(std::move(fn));
    ++pending_;
  }
  cv_.NotifyOne();
}

void ThreadPool::Wait() {
  MutexLock lock(&mu_);
  while (pending_ != 0) idle_cv_.Wait(mu_);
  // Wait-boundary invariant: a wakeout of the loop means the pool really is
  // idle — pending_ only moves under mu_, which we hold.
  UM_CONTRACT(pending_ == 0) << "ThreadPool::Wait woke with work pending";
}

void ThreadPool::ParallelFor(int64_t begin, int64_t end,
                             const std::function<void(int64_t)>& fn,
                             int64_t min_shard) {
  const int64_t n = end - begin;
  if (n <= 0) return;
  const int nt = num_threads();
  if (n <= min_shard || nt <= 1 || tls_in_pool_worker) {
    for (int64_t i = begin; i < end; ++i) fn(i);
    return;
  }
  const int64_t max_shards =
      std::min<int64_t>(nt, (n + min_shard - 1) / min_shard);
  const int64_t shard_size = (n + max_shards - 1) / max_shards;
  const int64_t shards = (n + shard_size - 1) / shard_size;  // none empty
  const auto run_shard = [&](int64_t s) {
    const int64_t lo = begin + s * shard_size;
    const int64_t hi = std::min(end, lo + shard_size);
    for (int64_t i = lo; i < hi; ++i) fn(i);
  };
  // This call's own count of unfinished pool shards. A shard's last touch
  // of it and of `done` happens under mu_, so once the caller sees zero
  // (also under mu_) no worker refers to this frame again.
  int64_t remaining = shards - 1;
  CondVar done;
  for (int64_t s = 1; s < shards; ++s) {
    Schedule([this, s, &run_shard, &remaining, &done] {
      run_shard(s);
      MutexLock lock(&mu_);
      if (--remaining == 0) done.NotifyOne();
    });
  }
  // The caller runs shard 0 as a worker would: nested ParallelFor calls
  // inside it run inline.
  tls_in_pool_worker = true;
  run_shard(0);
  tls_in_pool_worker = false;
  MutexLock lock(&mu_);
  while (remaining != 0) done.Wait(mu_);
}

void ThreadPool::WorkerLoop() {
  tls_in_pool_worker = true;
  for (;;) {
    std::function<void()> task;
    {
      MutexLock lock(&mu_);
      while (!shutdown_ && queue_.empty()) cv_.Wait(mu_);
      // Wait-boundary invariant: the loop only exits into one of the two
      // declared states (shutdown, or work available).
      UM_CONTRACT(shutdown_ || !queue_.empty())
          << "ThreadPool worker woke with no work and no shutdown";
      if (shutdown_ && queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop();
    }
    task();
    {
      MutexLock lock(&mu_);
      if (--pending_ == 0) idle_cv_.NotifyAll();
    }
  }
}

ThreadPool* ThreadPool::Global() {
  // Intentionally leaked: workers must outlive static destructors.
  static ThreadPool* pool = new ThreadPool();  // NOLINT(naked-new)
  return pool;
}

}  // namespace unimatch
