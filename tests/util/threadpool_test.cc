#include "src/util/threadpool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <thread>
#include <vector>

namespace unimatch {
namespace {

TEST(ThreadPoolTest, RunsScheduledTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.Schedule([&counter] { counter.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, WaitOnIdlePoolReturnsImmediately) {
  ThreadPool pool(2);
  pool.Wait();  // must not hang
  SUCCEED();
}

TEST(ThreadPoolTest, ParallelForCoversRange) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> touched(1000);
  pool.ParallelFor(0, 1000,
                   [&](int64_t i) { touched[i].fetch_add(1); },
                   /*min_shard=*/16);
  for (auto& t : touched) EXPECT_EQ(t.load(), 1);
}

TEST(ThreadPoolTest, ParallelForSmallRangeSerialPath) {
  ThreadPool pool(4);
  std::vector<int> touched(10, 0);
  pool.ParallelFor(0, 10, [&](int64_t i) { touched[i]++; });
  for (int t : touched) EXPECT_EQ(t, 1);
}

TEST(ThreadPoolTest, ParallelForEmptyRange) {
  ThreadPool pool(2);
  bool called = false;
  pool.ParallelFor(5, 5, [&](int64_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPoolTest, ParallelForSumMatchesSerial) {
  ThreadPool pool(8);
  std::vector<int64_t> values(5000);
  std::iota(values.begin(), values.end(), 0);
  std::atomic<int64_t> sum{0};
  pool.ParallelFor(0, 5000, [&](int64_t i) { sum.fetch_add(values[i]); },
                   /*min_shard=*/64);
  EXPECT_EQ(sum.load(), 5000LL * 4999 / 2);
}

TEST(ThreadPoolTest, NumThreadsPositive) {
  ThreadPool pool;  // default
  EXPECT_GE(pool.num_threads(), 1);
  ThreadPool one(1);
  EXPECT_EQ(one.num_threads(), 1);
}

TEST(ThreadPoolTest, GlobalPoolIsSingleton) {
  EXPECT_EQ(ThreadPool::Global(), ThreadPool::Global());
}

TEST(ThreadPoolTest, ConcurrentScheduleFromMultipleThreads) {
  // Hammer Schedule from several external producer threads at once; the
  // queue, pending counter, and Wait handshake must stay consistent.
  ThreadPool pool(4);
  constexpr int kProducers = 8;
  constexpr int kTasksPerProducer = 250;
  std::atomic<int> counter{0};
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&pool, &counter] {
      for (int i = 0; i < kTasksPerProducer; ++i) {
        pool.Schedule([&counter] { counter.fetch_add(1); });
      }
    });
  }
  for (auto& t : producers) t.join();
  pool.Wait();
  EXPECT_EQ(counter.load(), kProducers * kTasksPerProducer);
}

TEST(ThreadPoolTest, ScheduleFromWorkerTask) {
  // A task scheduling a follow-up task onto the same pool must not
  // deadlock, and Wait must cover the transitively scheduled work.
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  for (int i = 0; i < 16; ++i) {
    pool.Schedule([&pool, &counter] {
      pool.Schedule([&counter] { counter.fetch_add(1); });
    });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 16);
}

TEST(ThreadPoolTest, ConcurrentParallelForFromMultipleThreads) {
  // Two driver threads issuing ParallelFor on a shared pool concurrently;
  // each blocks until its own range completes.
  ThreadPool pool(4);
  std::atomic<int64_t> sum_a{0};
  std::atomic<int64_t> sum_b{0};
  std::thread driver_a([&] {
    pool.ParallelFor(0, 2000, [&](int64_t i) { sum_a.fetch_add(i); },
                     /*min_shard=*/32);
  });
  std::thread driver_b([&] {
    pool.ParallelFor(0, 3000, [&](int64_t i) { sum_b.fetch_add(i); },
                     /*min_shard=*/32);
  });
  driver_a.join();
  driver_b.join();
  EXPECT_EQ(sum_a.load(), 2000LL * 1999 / 2);
  EXPECT_EQ(sum_b.load(), 3000LL * 2999 / 2);
}

TEST(ThreadPoolTest, ParallelForWaitsOnlyForItsOwnShards) {
  // An unrelated task holds one worker until released. ParallelFor must
  // return while it still runs. The blocker gives up after 10 s, so a
  // ParallelFor that waits for the whole pool fails here instead of
  // hanging.
  ThreadPool pool(4);
  std::atomic<bool> started{false};
  std::atomic<bool> release{false};
  std::atomic<bool> blocker_done{false};
  pool.Schedule([&] {
    started.store(true);
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (!release.load() && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    blocker_done.store(true);
  });
  while (!started.load()) std::this_thread::yield();
  std::vector<std::atomic<int>> touched(4096);
  pool.ParallelFor(0, 4096, [&](int64_t i) { touched[i].fetch_add(1); },
                   /*min_shard=*/16);
  EXPECT_FALSE(blocker_done.load());
  release.store(true);
  pool.Wait();
  for (auto& t : touched) EXPECT_EQ(t.load(), 1);
}

TEST(ThreadPoolTest, DestructorDrainsOutstandingTasks) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 64; ++i) {
      pool.Schedule([&counter] { counter.fetch_add(1); });
    }
    // No Wait(): destruction must still run everything already queued.
  }
  EXPECT_EQ(counter.load(), 64);
}

}  // namespace
}  // namespace unimatch
