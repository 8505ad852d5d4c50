#include "src/util/mutex.h"

#include <algorithm>
#include <vector>

#include "src/util/logging.h"

namespace unimatch {

#if defined(UNIMATCH_LOCK_RANKS_DISABLED)

void Mutex::Lock() { mu_.lock(); }
void Mutex::Unlock() { mu_.unlock(); }
bool Mutex::TryLock() { return mu_.try_lock(); }

void CondVar::Wait(Mutex& mu) {
  std::unique_lock<std::mutex> adopted(mu.mu_, std::adopt_lock);
  cv_.wait(adopted);
  adopted.release();
}

std::cv_status CondVar::WaitUntil(
    Mutex& mu, std::chrono::steady_clock::time_point deadline) {
  std::unique_lock<std::mutex> adopted(mu.mu_, std::adopt_lock);
  const std::cv_status status = cv_.wait_until(adopted, deadline);
  adopted.release();
  return status;
}

#else  // lock-rank validator compiled in

namespace {

// Per-thread stack of held mutexes, most recent last. Ranks only ever
// ascend within the stack (that is the invariant being enforced), so the
// back entry is also the highest-ranked one.
//
// A CondVar wait leaves its mutex on the stack even though the wait
// releases it internally: the thread is blocked for exactly the interval
// the lock is loose and reacquires before returning, so no acquisition by
// *this* thread can observe the gap, and other threads consult only their
// own stacks.
thread_local std::vector<const Mutex*> tls_held_locks;

[[noreturn]] void DieOnRankViolation(const Mutex* acquiring,
                                     const Mutex* held) {
  UM_LOG_FATAL.stream()
      << "lock-rank violation: acquiring \"" << acquiring->name()
      << "\" (rank " << acquiring->rank() << ") while holding \""
      << held->name() << "\" (rank " << held->rank()
      << "); locks must be acquired in ascending rank order — see the "
         "lock-rank table in docs/STATIC_ANALYSIS.md";
  std::abort();  // unreachable; LogMessageFatal's destructor aborts
}

// Rank discipline: a blocking acquisition is legal iff its rank is strictly
// above the most recently acquired lock's. Violations abort with both names,
// turning every would-be deadlock cycle into a deterministic report at its
// first out-of-order edge — no unlucky interleaving required.
void CheckRankOnAcquire(const Mutex* mu) {
  if (tls_held_locks.empty()) return;
  const Mutex* held = tls_held_locks.back();
  if (mu->rank() > held->rank()) return;
  DieOnRankViolation(mu, held);
}

void RegisterAcquire(const Mutex* mu) { tls_held_locks.push_back(mu); }

void RegisterRelease(const Mutex* mu) {
  const auto it =
      std::find(tls_held_locks.rbegin(), tls_held_locks.rend(), mu);
  UM_CHECK(it != tls_held_locks.rend())
      << "unlocking \"" << mu->name()
      << "\" which this thread does not hold";
  tls_held_locks.erase(std::next(it).base());
}

}  // namespace

void Mutex::Lock() {
  CheckRankOnAcquire(this);
  mu_.lock();
  RegisterAcquire(this);
}

void Mutex::Unlock() {
  RegisterRelease(this);
  mu_.unlock();
}

bool Mutex::TryLock() {
  if (!mu_.try_lock()) return false;
  RegisterAcquire(this);
  return true;
}

bool Mutex::HeldByThisThread() const {
  return std::find(tls_held_locks.begin(), tls_held_locks.end(), this) !=
         tls_held_locks.end();
}

void CondVar::Wait(Mutex& mu) {
  // Adopt the already-held native mutex so condition_variable can release
  // and reacquire it; release() hands ownership back without unlocking.
  // The rank registry deliberately keeps `mu` registered throughout (see
  // tls_held_locks above).
  std::unique_lock<std::mutex> adopted(mu.mu_, std::adopt_lock);
  cv_.wait(adopted);
  adopted.release();
}

std::cv_status CondVar::WaitUntil(
    Mutex& mu, std::chrono::steady_clock::time_point deadline) {
  std::unique_lock<std::mutex> adopted(mu.mu_, std::adopt_lock);
  const std::cv_status status = cv_.wait_until(adopted, deadline);
  adopted.release();
  return status;
}

#endif  // UNIMATCH_LOCK_RANKS_DISABLED

}  // namespace unimatch
