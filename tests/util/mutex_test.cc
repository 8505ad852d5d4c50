// Tests for the annotated locking layer: MutexLock/CondVar semantics and
// the debug lock-rank deadlock validator (see docs/STATIC_ANALYSIS.md).

#include "src/util/mutex.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "src/util/threadpool.h"

namespace unimatch {
namespace {

TEST(MutexTest, MutexLockProvidesExclusion) {
  Mutex mu(lockrank::kObsMetrics, "test.counter");
  int counter = 0;
  constexpr int kThreads = 4;
  constexpr int kIncrements = 2000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIncrements; ++i) {
        MutexLock lock(&mu);
        ++counter;
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(counter, kThreads * kIncrements);
}

TEST(MutexTest, TryLockReportsContention) {
  Mutex mu(lockrank::kObsMetrics, "test.trylock");
  // Branch directly on TryLock so the thread-safety analysis tracks the
  // conditionally acquired capability.
  if (!mu.TryLock()) {
    FAIL() << "uncontended TryLock failed";
    return;
  }
  // Same thread, non-recursive mutex: probe from another thread instead.
  bool second = true;
  std::thread probe([&] {
    if (mu.TryLock()) {
      mu.Unlock();
      second = true;
    } else {
      second = false;
    }
  });
  probe.join();
  EXPECT_FALSE(second);
  mu.Unlock();
}

TEST(MutexTest, AscendingRankAcquisitionIsAllowed) {
  Mutex low(lockrank::kThreadPool, "test.low");
  Mutex mid(lockrank::kPrefetcher, "test.mid");
  Mutex high(lockrank::kObsMetrics, "test.high");
  MutexLock l1(&low);
  MutexLock l2(&mid);
  MutexLock l3(&high);
  SUCCEED();  // reaching here means no rank abort
}

TEST(MutexTest, CondVarWaitAndNotifyHandOff) {
  Mutex mu(lockrank::kPrefetcher, "test.handoff");
  CondVar cv;
  bool ready = false;
  int observed = -1;
  std::thread consumer([&] {
    MutexLock lock(&mu);
    while (!ready) cv.Wait(mu);
    observed = 42;
  });
  {
    MutexLock lock(&mu);
    ready = true;
  }
  cv.NotifyAll();
  consumer.join();
  EXPECT_EQ(observed, 42);
}

TEST(MutexTest, CondVarWaitUntilTimesOut) {
  Mutex mu(lockrank::kPrefetcher, "test.timeout");
  CondVar cv;
  MutexLock lock(&mu);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(5);
  EXPECT_EQ(cv.WaitUntil(mu, deadline), std::cv_status::timeout);
}

TEST(MutexTest, CondVarWaitKeepsRankRegistrationAcrossWakeups) {
  // Wait() internally releases and reacquires the mutex; the rank registry
  // must still treat it as held so a post-wakeup nested acquire of a
  // lower-ranked lock aborts (and a higher-ranked one succeeds). Exercise
  // the success side through the ThreadPool, whose Wait() blocks on a
  // CondVar while mu_ (the lowest rank) is registered.
  ThreadPool pool(2);
  Mutex mu(lockrank::kObsMetrics, "test.after_wait");
  int done = 0;
  for (int i = 0; i < 8; ++i) {
    pool.Schedule([&] {
      MutexLock lock(&mu);
      ++done;
    });
  }
  pool.Wait();
  MutexLock lock(&mu);
  EXPECT_EQ(done, 8);
}

#if !defined(UNIMATCH_LOCK_RANKS_DISABLED)

static_assert(kLockRanksEnabled,
              "this translation unit expects the rank validator on");

using MutexRankDeathTest = ::testing::Test;

TEST(MutexRankDeathTest, DescendingRankAcquireAbortsWithBothNames) {
  EXPECT_DEATH(
      {
        Mutex high(lockrank::kFrontend, "test.frontend");
        Mutex low(lockrank::kThreadPool, "test.threadpool");
        MutexLock l1(&high);
        MutexLock l2(&low);  // rank 10 while holding rank 50 — must die
      },
      "lock-rank violation.*\"test\\.threadpool\".*rank 10.*"
      "\"test\\.frontend\".*rank 50.*ascending rank order");
}

TEST(MutexRankDeathTest, EqualRankWithoutOrderTokensAborts) {
  EXPECT_DEATH(
      {
        Mutex a(lockrank::kObsMetrics, "test.peer_a");
        Mutex b(lockrank::kObsMetrics, "test.peer_b");
        MutexLock l1(&a);
        MutexLock l2(&b);  // equal ranks never nest — must die
      },
      "lock-rank violation.*\"test\\.peer_b\".*\"test\\.peer_a\"");
}

// Deliberately violates the release protocol; the analysis would (rightly)
// reject it, so it is opted out — the runtime check is the subject here.
void UnlockWithoutHolding(Mutex* mu) UM_NO_THREAD_SAFETY_ANALYSIS {
  mu->Unlock();
}

TEST(MutexRankDeathTest, UnlockingUnheldMutexAborts) {
  Mutex mu(lockrank::kObsMetrics, "test.unheld");
  EXPECT_DEATH(UnlockWithoutHolding(&mu),
               "unlocking \"test\\.unheld\" which this thread does not hold");
}

TEST(MutexRankDeathTest, RankCheckClearsAfterRelease) {
  // Releasing the high lock must deregister it: the same descending pair
  // acquired sequentially (not nested) is legal.
  Mutex high(lockrank::kFrontend, "test.seq_high");
  Mutex low(lockrank::kThreadPool, "test.seq_low");
  {
    MutexLock l1(&high);
  }
  {
    MutexLock l2(&low);
  }
  SUCCEED();
}

TEST(MutexRankDeathTest, TryLockIsExemptFromRankCheck) {
  // TryLock never blocks, so it cannot deadlock; out-of-order TryLock is
  // allowed (and on success the lock still registers as held).
  Mutex high(lockrank::kFrontend, "test.try_high");
  Mutex low(lockrank::kThreadPool, "test.try_low");
  MutexLock l1(&high);
  if (low.TryLock()) {
    EXPECT_TRUE(low.HeldByThisThread());
    low.Unlock();
  } else {
    ADD_FAILURE() << "uncontended TryLock failed";
  }
}

TEST(MutexRankDeathTest, HeldByThisThreadTracksOwnership) {
  Mutex mu(lockrank::kObsMetrics, "test.held");
  EXPECT_FALSE(mu.HeldByThisThread());
  {
    MutexLock lock(&mu);
    EXPECT_TRUE(mu.HeldByThisThread());
  }
  EXPECT_FALSE(mu.HeldByThisThread());
}

#else  // UNIMATCH_LOCK_RANKS_DISABLED

static_assert(!kLockRanksEnabled,
              "rank-disabled build must compile the validator out");

TEST(MutexRankDisabledTest, DescendingAcquireIsNotChecked) {
  // With the registry compiled out the wrapper is a plain std::mutex. This
  // smoke test runs in a test build with -DUNIMATCH_LOCK_RANKS=OFF, and the
  // build_with_lock_ranks_off buildcheck runs the same check without gtest.
  Mutex high(lockrank::kFrontend, "test.frontend");
  Mutex low(lockrank::kThreadPool, "test.threadpool");
  MutexLock l1(&high);
  MutexLock l2(&low);
  SUCCEED();
}

#endif  // UNIMATCH_LOCK_RANKS_DISABLED

}  // namespace
}  // namespace unimatch
