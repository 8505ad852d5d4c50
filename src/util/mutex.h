// Annotated locking layer: Mutex, MutexLock, CondVar.
//
// Every mutex in the tree goes through this wrapper instead of a naked
// std::mutex / std::condition_variable (enforced by the `naked-mutex` and
// `std-lock` lint rules). The wrapper buys two checks the standard types
// cannot provide:
//
//  1. Compile-time analysis. Mutex carries Clang capability attributes
//     (src/util/thread_annotations.h), so shared fields can be declared
//     UM_GUARDED_BY(mu_) and the `clang-threadsafety` preset rejects any
//     unlocked access path under -Wthread-safety -Werror.
//
//  2. Runtime deadlock detection that does not need the deadlock to fire.
//     Every Mutex declares a numeric *rank* (table below) and a thread may
//     only acquire mutexes in ascending rank order. The first out-of-order
//     acquisition anywhere — even one that happens to win the race this
//     run — aborts with both lock names. Compiled out entirely with
//     -DUNIMATCH_LOCK_RANKS=OFF (the build_with_switches_off ctest keeps
//     that configuration compiling).
//
// Lock-rank table (ascending = allowed acquisition order; a thread holding
// a lock may only acquire strictly-higher ranks, so two locks of equal rank
// never nest):
//
//   rank | constant                | mutex
//   -----+-------------------------+------------------------------------
//    10  | lockrank::kThreadPool   | util/threadpool queue mutex
//    20  | lockrank::kBufferPool   | tensor/storage free-list mutex
//    30  | lockrank::kPrefetcher   | data/prefetcher staging mutex
//    50  | lockrank::kFrontend     | serving/frontend admission queue
//    60  | lockrank::kObsTrace     | obs/trace event ring
//    61  | lockrank::kObsMetrics   | obs/metrics registry
//
// The order follows the dependency layering (DESIGN.md §7): lower layers
// never call back up into higher ones while holding their lock, and any
// layer may emit obs metrics while locked (obs ranks highest). How to pick
// a rank for a new lock: docs/STATIC_ANALYSIS.md §Thread-safety analysis.

#ifndef UNIMATCH_UTIL_MUTEX_H_
#define UNIMATCH_UTIL_MUTEX_H_

#include <chrono>
#include <condition_variable>
#include <mutex>

#include "src/util/thread_annotations.h"

namespace unimatch {

namespace lockrank {

// Keep this list in sync with the table above and the one in
// docs/STATIC_ANALYSIS.md. Gaps are deliberate headroom for new locks.
inline constexpr int kThreadPool = 10;
inline constexpr int kBufferPool = 20;
inline constexpr int kPrefetcher = 30;
inline constexpr int kFrontend = 50;
inline constexpr int kObsTrace = 60;
inline constexpr int kObsMetrics = 61;

}  // namespace lockrank

/// True when the lock-rank validator is compiled in (UNIMATCH_LOCK_RANKS=ON,
/// the default). Tests use this to gate the death tests.
#if defined(UNIMATCH_LOCK_RANKS_DISABLED)
inline constexpr bool kLockRanksEnabled = false;
#else
inline constexpr bool kLockRanksEnabled = true;
#endif

/// Annotated mutex with a declared rank and name.
class UM_CAPABILITY("mutex") Mutex {
 public:
  explicit Mutex(int rank, const char* name)
#if defined(UNIMATCH_LOCK_RANKS_DISABLED)
  {
    (void)rank;
    (void)name;
  }
#else
      : rank_(rank), name_(name) {
  }
#endif

  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() UM_ACQUIRE();
  void Unlock() UM_RELEASE();
  /// Never blocks, so it is exempt from rank checking (a try-acquire cannot
  /// participate in a deadlock cycle). Held locks still register.
  bool TryLock() UM_TRY_ACQUIRE(true);

#if !defined(UNIMATCH_LOCK_RANKS_DISABLED)
  int rank() const { return rank_; }
  const char* name() const { return name_; }
  /// True when the calling thread holds this mutex (rank-registry lookup;
  /// debug assertions only).
  bool HeldByThisThread() const;
#endif

 private:
  friend class CondVar;

  std::mutex mu_;
#if !defined(UNIMATCH_LOCK_RANKS_DISABLED)
  const int rank_;
  const char* const name_;
#endif
};

/// RAII lock for a Mutex — the only sanctioned way to hold one for a whole
/// scope (the `std-lock` lint rule bans std::lock_guard/unique_lock on it).
class UM_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex* mu) UM_ACQUIRE(mu) : mu_(mu) { mu_->Lock(); }
  ~MutexLock() UM_RELEASE() { mu_->Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex* const mu_;
};

/// Condition variable bound to a Mutex. Spurious wakeups happen; callers
/// re-check their predicate in a loop *inline* (not via a lambda predicate)
/// so the thread-safety analysis sees the guarded reads under the lock:
///
///   MutexLock lock(&mu_);
///   while (!ready_) cv_.Wait(mu_);
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Atomically releases `mu`, blocks, and reacquires before returning.
  /// `mu` must be the one mutex consistently used with this CondVar.
  void Wait(Mutex& mu) UM_REQUIRES(mu);

  /// Wait with a deadline; returns std::cv_status::timeout when the
  /// deadline passed (the mutex is reacquired either way).
  std::cv_status WaitUntil(Mutex& mu,
                           std::chrono::steady_clock::time_point deadline)
      UM_REQUIRES(mu);

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace unimatch

#endif  // UNIMATCH_UTIL_MUTEX_H_
