#include "src/tensor/storage.h"

#include <new>

#include "src/obs/obs.h"
#include "src/util/logging.h"

namespace unimatch {
namespace {

constexpr std::align_val_t kAlignment{64};

float* AlignedAlloc(int64_t n) {
  return static_cast<float*>(
      ::operator new(static_cast<size_t>(n) * sizeof(float), kAlignment));
}

void AlignedFree(float* p) { ::operator delete(p, kAlignment); }

}  // namespace

int64_t BufferPool::SizeClassFor(int64_t n) {
  UM_CHECK_GE(n, 0);
  int64_t c = kMinClassFloats;
  while (c < n) c <<= 1;
  return c;
}

BufferPool::~BufferPool() { Trim(); }

BufferPool* BufferPool::Global() {
  // Leaked on purpose: Storage handles may release buffers during static
  // destruction, after a normal singleton would already be gone.
  static BufferPool* pool = new BufferPool();
  return pool;
}

float* BufferPool::Acquire(int64_t n, int64_t* capacity) {
  const int64_t cls = SizeClassFor(n);
  *capacity = cls;
  const int64_t bytes = cls * static_cast<int64_t>(sizeof(float));
  acquires_.fetch_add(1, std::memory_order_relaxed);
  UM_COUNTER_INC("tensor.pool.acquires");

  float* p = nullptr;
  {
    MutexLock lock(&mu_);
    auto it = free_lists_.find(cls);
    if (it != free_lists_.end() && !it->second.empty()) {
      p = it->second.back();
      it->second.pop_back();
    }
  }
  if (p != nullptr) {
    hits_.fetch_add(1, std::memory_order_relaxed);
    [[maybe_unused]] const int64_t pooled =
        bytes_pooled_.fetch_sub(bytes, std::memory_order_relaxed) - bytes;
    UM_COUNTER_INC("tensor.pool.hits");
    UM_GAUGE_SET("tensor.pool.bytes_pooled", static_cast<double>(pooled));
  } else {
    p = AlignedAlloc(cls);
    misses_.fetch_add(1, std::memory_order_relaxed);
    UM_COUNTER_INC("tensor.pool.misses");
  }
  [[maybe_unused]] const int64_t live =
      bytes_live_.fetch_add(bytes, std::memory_order_relaxed) + bytes;
  UM_GAUGE_SET("tensor.pool.bytes_live", static_cast<double>(live));
  return p;
}

void BufferPool::Release(float* ptr, int64_t capacity) {
  UM_CHECK(ptr != nullptr);
  const int64_t bytes = capacity * static_cast<int64_t>(sizeof(float));
  releases_.fetch_add(1, std::memory_order_relaxed);
  [[maybe_unused]] const int64_t live =
      bytes_live_.fetch_sub(bytes, std::memory_order_relaxed) - bytes;
  [[maybe_unused]] const int64_t pooled =
      bytes_pooled_.fetch_add(bytes, std::memory_order_relaxed) + bytes;
  UM_GAUGE_SET("tensor.pool.bytes_live", static_cast<double>(live));
  UM_GAUGE_SET("tensor.pool.bytes_pooled", static_cast<double>(pooled));
  MutexLock lock(&mu_);
  free_lists_[capacity].push_back(ptr);
}

void BufferPool::Trim() {
  std::unordered_map<int64_t, std::vector<float*>> lists;
  {
    MutexLock lock(&mu_);
    lists.swap(free_lists_);
  }
  int64_t freed = 0;
  for (auto& [cls, ptrs] : lists) {
    freed += cls * static_cast<int64_t>(sizeof(float)) *
             static_cast<int64_t>(ptrs.size());
    for (float* p : ptrs) AlignedFree(p);
  }
  [[maybe_unused]] const int64_t pooled =
      bytes_pooled_.fetch_sub(freed, std::memory_order_relaxed) - freed;
  UM_GAUGE_SET("tensor.pool.bytes_pooled", static_cast<double>(pooled));
}

BufferPool::Stats BufferPool::stats() const {
  Stats s;
  s.acquires = acquires_.load(std::memory_order_relaxed);
  s.hits = hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  s.releases = releases_.load(std::memory_order_relaxed);
  s.bytes_live = bytes_live_.load(std::memory_order_relaxed);
  s.bytes_pooled = bytes_pooled_.load(std::memory_order_relaxed);
  return s;
}

Storage::Impl::~Impl() {
  switch (mode) {
    case Mode::kPooled:
      BufferPool::Global()->Release(data, capacity);
      break;
    case Mode::kUnpooled:
      AlignedFree(data);
      break;
  }
}

Storage Storage::Allocate(int64_t n) {
  UM_CHECK_GE(n, 0);
  auto impl = std::make_shared<Impl>();
  impl->data = BufferPool::Global()->Acquire(n, &impl->capacity);
  impl->mode = Mode::kPooled;
  return Storage(std::move(impl), 0, n);
}

Storage Storage::AllocateUnpooled(int64_t n) {
  UM_CHECK_GE(n, 0);
  auto impl = std::make_shared<Impl>();
  impl->data = AlignedAlloc(n > 0 ? n : 1);
  impl->capacity = n;
  impl->mode = Mode::kUnpooled;
  return Storage(std::move(impl), 0, n);
}

Storage Storage::View(int64_t offset, int64_t n) const {
  UM_CHECK(impl_ != nullptr);
  UM_CHECK_GE(offset, 0);
  UM_CHECK_GE(n, 0);
  UM_CHECK_LE(offset + n, size_);
  return Storage(impl_, offset_ + offset, n);
}

}  // namespace unimatch
