// Scoped parallel-execution regions for the training pipeline.
//
// Numeric row/element loops in the nn ops and the optimizers consult the
// thread-local region installed here. With no region installed (the
// default, and always the case on pool worker threads) they run the exact
// serial loop, so code outside an opted-in scope behaves byte-for-byte as
// before. Inside a region the loops shard across the region's ThreadPool;
// only loops whose iterations are independent (row-local or elementwise
// math) are routed through RegionParallelFor, which keeps the results
// bitwise identical to the serial loop for any thread count.

#ifndef UNIMATCH_UTIL_PARALLEL_H_
#define UNIMATCH_UTIL_PARALLEL_H_

#include <cstdint>
#include <functional>

#include "src/util/threadpool.h"

namespace unimatch {

/// Installs `pool` as the current thread's parallel region for the lifetime
/// of the object (nullptr is a no-op region: everything stays serial).
/// Regions do not propagate to pool workers, and a ParallelFor caller
/// running its own shard sees none either, so loops running inside a shard
/// never re-enter the pool.
class ScopedParallelRegion {
 public:
  explicit ScopedParallelRegion(ThreadPool* pool);
  ~ScopedParallelRegion();

  ScopedParallelRegion(const ScopedParallelRegion&) = delete;
  ScopedParallelRegion& operator=(const ScopedParallelRegion&) = delete;

 private:
  ThreadPool* prev_;
};

/// The pool of the innermost active region on this thread, or nullptr
/// (always nullptr while the thread runs a pool shard).
ThreadPool* CurrentParallelPool();

/// Runs fn(i) for i in [begin, end): serial without a region or below
/// `min_shard` iterations, sharded over the region's pool otherwise. Each
/// index must be computable independently of the others.
void RegionParallelFor(int64_t begin, int64_t end,
                       const std::function<void(int64_t)>& fn,
                       int64_t min_shard = 8);

/// Block form for elementwise loops: fn(lo, hi) over disjoint contiguous
/// subranges covering [begin, end). Avoids the per-index call overhead of
/// RegionParallelFor on large flat buffers.
void RegionParallelForRange(int64_t begin, int64_t end,
                            const std::function<void(int64_t, int64_t)>& fn,
                            int64_t min_range = 16384);

}  // namespace unimatch

#endif  // UNIMATCH_UTIL_PARALLEL_H_
