#include "src/util/parallel.h"

#include <algorithm>

namespace unimatch {

namespace {
thread_local ThreadPool* tls_region_pool = nullptr;
}  // namespace

ScopedParallelRegion::ScopedParallelRegion(ThreadPool* pool)
    : prev_(tls_region_pool) {
  tls_region_pool = pool;
}

ScopedParallelRegion::~ScopedParallelRegion() { tls_region_pool = prev_; }

ThreadPool* CurrentParallelPool() {
  return ThreadPool::InWorkerThread() ? nullptr : tls_region_pool;
}

void RegionParallelFor(int64_t begin, int64_t end,
                       const std::function<void(int64_t)>& fn,
                       int64_t min_shard) {
  ThreadPool* pool = CurrentParallelPool();
  if (pool == nullptr || end - begin <= min_shard) {
    for (int64_t i = begin; i < end; ++i) fn(i);
    return;
  }
  pool->ParallelFor(begin, end, fn, min_shard);
}

void RegionParallelForRange(int64_t begin, int64_t end,
                            const std::function<void(int64_t, int64_t)>& fn,
                            int64_t min_range) {
  const int64_t n = end - begin;
  if (n <= 0) return;
  ThreadPool* pool = CurrentParallelPool();
  if (pool == nullptr || n <= min_range) {
    fn(begin, end);
    return;
  }
  const int64_t blocks = std::min<int64_t>(
      pool->num_threads(), (n + min_range - 1) / min_range);
  const int64_t block_size = (n + blocks - 1) / blocks;
  pool->ParallelFor(
      0, blocks,
      [&](int64_t b) {
        const int64_t lo = begin + b * block_size;
        const int64_t hi = std::min(end, lo + block_size);
        if (lo < hi) fn(lo, hi);
      },
      /*min_shard=*/1);
}

}  // namespace unimatch
