#include "src/tensor/storage.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "src/tensor/tensor.h"

namespace unimatch {
namespace {

// The pool is a process-wide singleton whose counters are cumulative, so
// every assertion here works on deltas between stats() snapshots. Tests
// also use deliberately odd sizes (prime-ish float counts well above the
// common hot-path shapes) so free-list reuse within a test is not polluted
// by buffers other tests parked.

TEST(BufferPoolTest, SizeClassRounding) {
  EXPECT_EQ(BufferPool::SizeClassFor(0), BufferPool::kMinClassFloats);
  EXPECT_EQ(BufferPool::SizeClassFor(1), BufferPool::kMinClassFloats);
  EXPECT_EQ(BufferPool::SizeClassFor(64), 64);
  EXPECT_EQ(BufferPool::SizeClassFor(65), 128);
  EXPECT_EQ(BufferPool::SizeClassFor(4097), 8192);
}

TEST(BufferPoolTest, AcquireIsAlignedAndReleaseParksBuffer) {
  BufferPool pool;  // private pool: counters start at zero
  int64_t cap = 0;
  float* p = pool.Acquire(100, &cap);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(cap, 128);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(p) % 64, 0u);

  BufferPool::Stats s = pool.stats();
  EXPECT_EQ(s.acquires, 1);
  EXPECT_EQ(s.misses, 1);
  EXPECT_EQ(s.hits, 0);
  EXPECT_EQ(s.bytes_live, 128 * static_cast<int64_t>(sizeof(float)));
  EXPECT_EQ(s.bytes_pooled, 0);

  pool.Release(p, cap);
  s = pool.stats();
  EXPECT_EQ(s.releases, 1);
  EXPECT_EQ(s.bytes_live, 0);
  EXPECT_EQ(s.bytes_pooled, 128 * static_cast<int64_t>(sizeof(float)));
}

TEST(BufferPoolTest, ReleasedBufferIsReusedBySameClass) {
  BufferPool pool;
  int64_t cap = 0;
  float* first = pool.Acquire(200, &cap);
  pool.Release(first, cap);

  // Same size class comes back off the free list: a hit, same pointer.
  int64_t cap2 = 0;
  float* second = pool.Acquire(129, &cap2);
  EXPECT_EQ(cap2, cap);
  EXPECT_EQ(second, first);
  EXPECT_EQ(pool.stats().hits, 1);

  // A different class misses independently.
  int64_t cap3 = 0;
  float* third = pool.Acquire(5000, &cap3);
  EXPECT_EQ(cap3, 8192);
  EXPECT_EQ(pool.stats().misses, 2);
  pool.Release(second, cap2);
  pool.Release(third, cap3);
}

TEST(BufferPoolTest, TrimFreesParkedBuffersOnly) {
  BufferPool pool;
  int64_t cap_parked = 0, cap_live = 0;
  float* parked = pool.Acquire(300, &cap_parked);
  float* live = pool.Acquire(300, &cap_live);
  pool.Release(parked, cap_parked);

  pool.Trim();
  BufferPool::Stats s = pool.stats();
  EXPECT_EQ(s.bytes_pooled, 0);
  EXPECT_EQ(s.bytes_live, cap_live * static_cast<int64_t>(sizeof(float)));
  // The outstanding buffer is untouched and still writable.
  live[0] = 1.0f;
  EXPECT_EQ(live[0], 1.0f);
  pool.Release(live, cap_live);
  pool.Trim();
}

TEST(BufferPoolTest, ConcurrentAcquireReleaseIsBalanced) {
  BufferPool pool;
  constexpr int kThreads = 8;
  constexpr int kIters = 500;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&pool, &failures, t] {
      for (int i = 0; i < kIters; ++i) {
        // Mix of size classes so threads contend on the same free lists.
        const int64_t n = 64 << ((t + i) % 4);
        int64_t cap = 0;
        float* p = pool.Acquire(n, &cap);
        if (p == nullptr || cap < n) {
          failures.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        p[0] = static_cast<float>(i);  // touch the buffer while owned
        p[n - 1] = static_cast<float>(t);
        pool.Release(p, cap);
      }
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_EQ(failures.load(), 0);
  BufferPool::Stats s = pool.stats();
  EXPECT_EQ(s.acquires, kThreads * kIters);
  EXPECT_EQ(s.releases, kThreads * kIters);
  EXPECT_EQ(s.acquires, s.hits + s.misses);
  EXPECT_EQ(s.bytes_live, 0);
}

TEST(StorageTest, DefaultHandleIsEmpty) {
  Storage s;
  EXPECT_FALSE(s.valid());
  EXPECT_EQ(s.data(), nullptr);
  EXPECT_EQ(s.size(), 0);
  EXPECT_FALSE(s.unique());
  EXPECT_FALSE(s.SharesBufferWith(Storage()));
}

TEST(StorageTest, CopiesAliasAndUniqueTracksRefcount) {
  Storage a = Storage::Allocate(10);
  EXPECT_TRUE(a.valid());
  EXPECT_TRUE(a.unique());
  {
    Storage b = a;
    EXPECT_TRUE(a.SharesBufferWith(b));
    EXPECT_FALSE(a.unique());
    b.data()[3] = 7.0f;
    EXPECT_EQ(a.data()[3], 7.0f);
  }
  EXPECT_TRUE(a.unique());
}

TEST(StorageTest, ViewWindowsTheSameBuffer) {
  Storage a = Storage::Allocate(32);
  for (int i = 0; i < 32; ++i) a.data()[i] = static_cast<float>(i);
  Storage v = a.View(8, 4);
  EXPECT_TRUE(v.SharesBufferWith(a));
  EXPECT_EQ(v.size(), 4);
  EXPECT_EQ(v.data(), a.data() + 8);
  EXPECT_EQ(v.data()[0], 8.0f);

  // Views of views compose offsets.
  Storage vv = v.View(2, 1);
  EXPECT_EQ(vv.data()[0], 10.0f);
  EXPECT_TRUE(vv.SharesBufferWith(a));
}

TEST(StorageDeathTest, ViewOutOfWindowChecks) {
  Storage a = Storage::Allocate(16);
  EXPECT_DEATH(a.View(8, 9), "Check failed");
  EXPECT_DEATH(a.View(-1, 2), "Check failed");
}

TEST(StorageTest, PooledBufferReturnsToPoolAndIsRecycled) {
  BufferPool* pool = BufferPool::Global();
  // Start from an empty size class: an earlier test in the same process
  // may have left a buffer of this class parked.
  pool->Trim();
  // Odd size so this test's size class (16384 floats) is its own.
  constexpr int64_t kN = 9001;
  const int64_t cls_bytes =
      BufferPool::SizeClassFor(kN) * static_cast<int64_t>(sizeof(float));

  const BufferPool::Stats before = pool->stats();
  float* ptr = nullptr;
  {
    Storage s = Storage::Allocate(kN);
    ptr = s.data();
    const BufferPool::Stats held = pool->stats();
    EXPECT_EQ(held.acquires - before.acquires, 1);
    EXPECT_EQ(held.bytes_live - before.bytes_live, cls_bytes);
  }  // handle drops -> buffer parked, not freed
  const BufferPool::Stats released = pool->stats();
  EXPECT_EQ(released.releases - before.releases, 1);
  EXPECT_EQ(released.bytes_live, before.bytes_live);
  EXPECT_EQ(released.bytes_pooled - before.bytes_pooled, cls_bytes);

  // The very next allocation of the class reuses the parked buffer (free
  // lists are LIFO and nothing else in this test touches the class).
  Storage s2 = Storage::Allocate(kN);
  EXPECT_EQ(s2.data(), ptr);
  EXPECT_EQ(pool->stats().hits - released.hits, 1);
}

TEST(StorageTest, ViewKeepsBufferCheckedOut) {
  BufferPool* pool = BufferPool::Global();
  constexpr int64_t kN = 11003;  // private size class (16384)
  const BufferPool::Stats before = pool->stats();
  Storage view;
  {
    Storage owner = Storage::Allocate(kN);
    owner.data()[42] = 3.5f;
    view = owner.View(40, 8);
  }  // owner handle gone, but the view still pins the buffer
  EXPECT_EQ(pool->stats().releases, before.releases);
  EXPECT_EQ(view.data()[2], 3.5f);
  view = Storage();  // last handle drops -> now it releases
  EXPECT_EQ(pool->stats().releases - before.releases, 1);
}

TEST(StorageTest, UnpooledBuffersBypassTheFreeLists) {
  BufferPool* pool = BufferPool::Global();
  const BufferPool::Stats before = pool->stats();
  {
    Storage s = Storage::AllocateUnpooled(8000);
    s.data()[0] = 1.0f;
    s.data()[7999] = 2.0f;
    EXPECT_EQ(reinterpret_cast<uintptr_t>(s.data()) % 64, 0u);
  }
  const BufferPool::Stats after = pool->stats();
  EXPECT_EQ(after.acquires, before.acquires);
  EXPECT_EQ(after.releases, before.releases);
  EXPECT_EQ(after.bytes_pooled, before.bytes_pooled);
}

// ---- Tensor-level view/aliasing semantics over the new substrate. ----

TEST(TensorViewTest, RowIsZeroCopy) {
  Tensor m({3, 4}, {0, 1, 2,  3,   //
                    4, 5, 6,  7,   //
                    8, 9, 10, 11});
  Tensor r1 = m.Row(1);
  EXPECT_EQ(r1.shape(), (Shape{4}));
  EXPECT_TRUE(r1.shares_storage(m));
  EXPECT_EQ(r1.data(), m.data() + 4);
  EXPECT_EQ(r1.at(2), 6.0f);

  // Writes through the view land in the parent.
  r1.at(0) = -1.0f;
  EXPECT_EQ(m.at(1, 0), -1.0f);

  // Disjoint rows of one matrix still report shared storage.
  EXPECT_TRUE(m.Row(0).shares_storage(m.Row(2)));
  EXPECT_NE(m.Row(0).data(), m.Row(2).data());
}

TEST(TensorViewTest, RowOfRank3DropsLeadingDim) {
  Tensor t({2, 3, 4});
  t.at(1, 0, 0) = 5.0f;
  Tensor r = t.Row(1);
  EXPECT_EQ(r.shape(), (Shape{3, 4}));
  EXPECT_TRUE(r.shares_storage(t));
  EXPECT_EQ(r.at(0, 0), 5.0f);
}

TEST(TensorViewTest, SliceCoversHalfOpenRowRange) {
  Tensor m({4, 2}, {0, 1, 2, 3, 4, 5, 6, 7});
  Tensor s = m.Slice(1, 3);
  EXPECT_EQ(s.shape(), (Shape{2, 2}));
  EXPECT_TRUE(s.shares_storage(m));
  EXPECT_EQ(s.at(0, 0), 2.0f);
  EXPECT_EQ(s.at(1, 1), 5.0f);

  Tensor empty = m.Slice(2, 2);
  EXPECT_EQ(empty.dim(0), 0);
  EXPECT_EQ(empty.numel(), 0);
}

TEST(TensorViewDeathTest, RowAndSliceBoundsCheck) {
  Tensor m({3, 4});
  EXPECT_DEATH(m.Row(3), "Check failed");
  EXPECT_DEATH(m.Row(-1), "Check failed");
  EXPECT_DEATH(m.Slice(1, 4), "Check failed");
  EXPECT_DEATH(m.Slice(2, 1), "Check failed");
}

TEST(TensorViewTest, ReshapedAliasesAndCloneDetaches) {
  Tensor m({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor r = m.Reshaped({3, 2});
  EXPECT_TRUE(r.shares_storage(m));
  EXPECT_FALSE(r.storage_unique());  // two handles on one buffer

  Tensor c = m.Row(0).Clone();
  EXPECT_FALSE(c.shares_storage(m));
  c.at(0) = 99.0f;
  EXPECT_EQ(m.at(0, 0), 1.0f);
}

TEST(TensorViewTest, EmptyAndCopyFrom) {
  Tensor src({2, 2}, {1, 2, 3, 4});
  Tensor dst = Tensor::Empty({2, 2});  // contents unspecified until written
  dst.CopyFrom(src);
  EXPECT_FALSE(dst.shares_storage(src));
  EXPECT_EQ(dst.at(1, 1), 4.0f);

  // CopyFrom through an aliasing pair of views must also be safe.
  dst.Row(0).CopyFrom(src.Row(1));
  EXPECT_EQ(dst.at(0, 0), 3.0f);
  EXPECT_EQ(dst.at(0, 1), 4.0f);
}

TEST(TensorViewTest, StorageUniqueGatesGradAdoption) {
  Tensor t({2, 2});
  EXPECT_TRUE(t.storage_unique());
  Tensor view = t.Row(0);
  EXPECT_FALSE(t.storage_unique());  // the view would alias an adopted grad
  view = Tensor();
  EXPECT_TRUE(t.storage_unique());
}

}  // namespace
}  // namespace unimatch
