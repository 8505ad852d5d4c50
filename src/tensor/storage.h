// Pooled, aligned, refcounted float buffers — the substrate under Tensor.
//
// Storage replaces the original std::shared_ptr<std::vector<float>> tensor
// backing. It separates three concerns that the vector conflated:
//
//  * Allocation: buffers come from a process-wide size-class BufferPool
//    (64-byte aligned, so the AVX2 kernels see aligned rows), and return to
//    the pool when the last Storage handle drops. Steady-state training
//    steps therefore recycle the same few buffers instead of hitting the
//    heap thousands of times per step.
//  * Lifetime: Storage is a refcounted value type; copies alias the same
//    underlying buffer. Long-lived parameters opt out of pooling with
//    AllocateUnpooled (their buffers would otherwise pin pool size classes
//    forever).
//  * Addressing: a Storage carries an (offset, size) window into its
//    buffer, so zero-copy views (Tensor::Row / Slice) are just new handles
//    with a different window. SharesBufferWith compares buffers, not
//    windows — two disjoint rows of one matrix still share storage.
//
// Thread safety: BufferPool is fully thread-safe (free lists behind an
// annotated um::Mutex at lockrank::kBufferPool — compile-time checked under
// -Wthread-safety, see docs/STATIC_ANALYSIS.md — plus atomic stats).
// Storage handles follow shared_ptr rules — concurrent reads of distinct
// handles to one buffer are fine, mutating one handle needs external
// synchronization. Note the rank: releasing a pooled buffer while holding
// any higher-ranked lock (prefetcher/frontend/obs) trips the lock-rank
// validator by design — heavy frees do not belong under those locks.

#ifndef UNIMATCH_TENSOR_STORAGE_H_
#define UNIMATCH_TENSOR_STORAGE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "src/util/mutex.h"

namespace unimatch {

/// Thread-safe size-class recycler for 64-byte-aligned float buffers.
///
/// Requests are rounded up to the next power-of-two float count (minimum
/// 64 floats = one cache line of lanes), so a handful of classes serve all
/// hot-path shapes and a released buffer is immediately reusable by any
/// request of the same class.
class BufferPool {
 public:
  /// Exact, always-on allocation counters (independent of the obs runtime
  /// toggle; benches and tests read these directly).
  struct Stats {
    int64_t acquires = 0;  ///< total Acquire() calls
    int64_t hits = 0;      ///< acquires served from a free list
    int64_t misses = 0;    ///< acquires that hit the heap
    int64_t releases = 0;  ///< buffers returned (to the pool or the heap)
    int64_t bytes_live = 0;    ///< bytes currently handed out to callers
    int64_t bytes_pooled = 0;  ///< bytes currently parked in free lists
  };

  BufferPool() = default;
  ~BufferPool() UM_EXCLUDES(mu_);
  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// Process-wide pool used by Storage::Allocate. Never destroyed.
  static BufferPool* Global();

  /// Returns a 64-byte-aligned buffer of at least `n` floats; `*capacity`
  /// receives the actual size-class capacity (pass it back to Release).
  /// Contents are unspecified — callers zero-fill if they need zeros.
  float* Acquire(int64_t n, int64_t* capacity) UM_EXCLUDES(mu_);

  /// Returns a buffer obtained from Acquire to the free lists.
  void Release(float* ptr, int64_t capacity) UM_EXCLUDES(mu_);

  /// Frees every buffer parked in the free lists (outstanding buffers are
  /// untouched). Mainly for tests and memory-pressure hooks.
  void Trim() UM_EXCLUDES(mu_);

  Stats stats() const;

  /// Smallest size class, in floats.
  static constexpr int64_t kMinClassFloats = 64;
  /// Rounds a float count up to its size class (next power of two, at
  /// least kMinClassFloats).
  static int64_t SizeClassFor(int64_t n);

 private:
  mutable Mutex mu_{lockrank::kBufferPool, "tensor.pool"};
  std::unordered_map<int64_t, std::vector<float*>> free_lists_
      UM_GUARDED_BY(mu_);

  std::atomic<int64_t> acquires_{0};
  std::atomic<int64_t> hits_{0};
  std::atomic<int64_t> misses_{0};
  std::atomic<int64_t> releases_{0};
  std::atomic<int64_t> bytes_live_{0};
  std::atomic<int64_t> bytes_pooled_{0};
};

/// Refcounted handle to an (offset, size) window of an aligned float
/// buffer. Default-constructed handles are empty (data() == nullptr).
class Storage {
 public:
  Storage() = default;

  /// `n` floats from the global BufferPool. Contents are unspecified.
  static Storage Allocate(int64_t n);
  /// `n` floats straight from the heap; freed (not pooled) on release.
  /// For long-lived parameters that would otherwise pin pool classes.
  static Storage AllocateUnpooled(int64_t n);

  /// Narrowed window into the same buffer: `n` floats starting `offset`
  /// floats into this window. Shares (and extends the lifetime of) the
  /// underlying buffer.
  Storage View(int64_t offset, int64_t n) const;

  float* data() const { return impl_ ? impl_->data + offset_ : nullptr; }
  int64_t size() const { return size_; }
  bool valid() const { return impl_ != nullptr; }

  /// True when both handles window the same underlying buffer (even if the
  /// windows are disjoint).
  bool SharesBufferWith(const Storage& other) const {
    return impl_ != nullptr && impl_ == other.impl_;
  }

  /// True when this handle is the only reference to its buffer — the
  /// gradient move-accumulation fast path keys off this.
  bool unique() const { return impl_ != nullptr && impl_.use_count() == 1; }

 private:
  enum class Mode { kPooled, kUnpooled };

  struct Impl {
    float* data = nullptr;
    int64_t capacity = 0;  ///< size class (pooled) or exact size (unpooled)
    Mode mode = Mode::kPooled;
    ~Impl();
  };

  Storage(std::shared_ptr<Impl> impl, int64_t offset, int64_t size)
      : impl_(std::move(impl)), offset_(offset), size_(size) {}

  std::shared_ptr<Impl> impl_;
  int64_t offset_ = 0;
  int64_t size_ = 0;
};

}  // namespace unimatch

#endif  // UNIMATCH_TENSOR_STORAGE_H_
