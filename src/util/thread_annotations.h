// Clang thread-safety-analysis capability macros (no-ops elsewhere).
//
// These wrap the attributes behind Clang's -Wthread-safety so locking
// discipline is checked at *compile time*: every shared field names the
// mutex that guards it (UM_GUARDED_BY), every internal helper states what
// it needs held (UM_REQUIRES) or must not hold (UM_EXCLUDES), and the
// analysis rejects any access path that violates the declarations. GCC
// ignores the attributes entirely, so the annotated tree builds the same
// everywhere; the `clang-threadsafety` CMake preset turns the analysis on
// (with -Werror) and CI enforces it per push.
//
// Use these only through src/util/mutex.h (um::Mutex / um::MutexLock /
// um::CondVar) — annotating a naked std::mutex does nothing, because the
// standard types carry no capability attributes. The annotation cheat-sheet
// and the repo-wide lock-rank table live in docs/STATIC_ANALYSIS.md.

#ifndef UNIMATCH_UTIL_THREAD_ANNOTATIONS_H_
#define UNIMATCH_UTIL_THREAD_ANNOTATIONS_H_

#if defined(__clang__) && defined(__has_attribute)
#define UM_THREAD_ANNOTATION_(x) __attribute__((x))
#else
#define UM_THREAD_ANNOTATION_(x)  // no-op on GCC/MSVC
#endif

/// Marks a class as a lockable capability ("mutex" in diagnostics).
#define UM_CAPABILITY(x) UM_THREAD_ANNOTATION_(capability(x))

/// Marks an RAII class whose constructor acquires and destructor releases.
#define UM_SCOPED_CAPABILITY UM_THREAD_ANNOTATION_(scoped_lockable)

/// Field/variable may only be accessed while holding the given mutex.
#define UM_GUARDED_BY(x) UM_THREAD_ANNOTATION_(guarded_by(x))

/// Pointer field: the *pointee* may only be accessed while holding `x`.
#define UM_PT_GUARDED_BY(x) UM_THREAD_ANNOTATION_(pt_guarded_by(x))

/// Function requires the listed mutexes to be held by the caller.
#define UM_REQUIRES(...) \
  UM_THREAD_ANNOTATION_(requires_capability(__VA_ARGS__))

/// Function must be called with the listed mutexes NOT held.
#define UM_EXCLUDES(...) UM_THREAD_ANNOTATION_(locks_excluded(__VA_ARGS__))

/// Function acquires the listed mutexes (and does not release them).
#define UM_ACQUIRE(...) \
  UM_THREAD_ANNOTATION_(acquire_capability(__VA_ARGS__))

/// Function releases the listed mutexes.
#define UM_RELEASE(...) \
  UM_THREAD_ANNOTATION_(release_capability(__VA_ARGS__))

/// Function tries to acquire; first argument is the success return value.
#define UM_TRY_ACQUIRE(...) \
  UM_THREAD_ANNOTATION_(try_acquire_capability(__VA_ARGS__))

/// Declares a static acquisition order between two mutex members.
#define UM_ACQUIRED_BEFORE(...) \
  UM_THREAD_ANNOTATION_(acquired_before(__VA_ARGS__))
#define UM_ACQUIRED_AFTER(...) \
  UM_THREAD_ANNOTATION_(acquired_after(__VA_ARGS__))

/// Function returns a reference/pointer to the given mutex.
#define UM_RETURN_CAPABILITY(x) UM_THREAD_ANNOTATION_(lock_returned(x))

/// Runtime assertion that the calling thread holds the mutex; the analysis
/// treats the mutex as held afterwards.
#define UM_ASSERT_CAPABILITY(x) UM_THREAD_ANNOTATION_(assert_capability(x))

/// Escape hatch: turns the analysis off for one function. Every use needs a
/// comment explaining why (e.g. a death test that breaks the protocol on
/// purpose).
#define UM_NO_THREAD_SAFETY_ANALYSIS \
  UM_THREAD_ANNOTATION_(no_thread_safety_analysis)

#endif  // UNIMATCH_UTIL_THREAD_ANNOTATIONS_H_
