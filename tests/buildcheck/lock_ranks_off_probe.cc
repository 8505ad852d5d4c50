// Run by the build_with_lock_ranks_off buildcheck, inside the tree that
// build_with_switches_off configures with -DUNIMATCH_LOCK_RANKS=OFF. With
// the validator compiled out, Mutex must be a bare std::mutex wrapper and
// must accept any acquisition order. Exits 0 when that holds.

#include <mutex>

#include "src/util/mutex.h"

static_assert(!unimatch::kLockRanksEnabled,
              "lock_ranks_off_probe must be built with "
              "-DUNIMATCH_LOCK_RANKS=OFF");
static_assert(sizeof(unimatch::Mutex) ==
                  sizeof(std::mutex),  // NOLINT(naked-mutex): size check
              "a rank-disabled Mutex must carry no rank state");

int main() {
  // Descending rank order: the validator would abort on the second lock.
  unimatch::Mutex high(unimatch::lockrank::kFrontend, "probe.frontend");
  unimatch::Mutex low(unimatch::lockrank::kThreadPool, "probe.threadpool");
  unimatch::MutexLock hold_high(&high);
  unimatch::MutexLock hold_low(&low);
  return 0;
}
