#pragma once

// Clang thread-safety annotations behind MESHMP_* macros, plus the zero-cost
// SimLock capability the shared-state hot spots annotate against.
//
// The engine is single-threaded, but a few structures are process-wide
// shared state (buf::Pool free lists, the obs and chk registries, waiter
// lists of the sync primitives). They declare their locking discipline
// here: members carry MESHMP_GUARDED_BY, private helpers carry
// MESHMP_REQUIRES, and public entry points take a SimLockGuard. Under Clang,
// -Wthread-safety (promoted to an error by MESHMP_THREAD_SAFETY) then checks
// the discipline statically on every build; under GCC the annotations
// compile to nothing. SimLock itself is annotation-only: lock() and unlock()
// are empty, so the discipline costs nothing at run time.

#if defined(__clang__)
#define MESHMP_THREAD_ANNOTATION_(x) __attribute__((x))
#else
#define MESHMP_THREAD_ANNOTATION_(x)
#endif

/// Declares a type that models a lockable capability.
#define MESHMP_CAPABILITY(x) MESHMP_THREAD_ANNOTATION_(capability(x))
/// Declares an RAII type that acquires on construction, releases on scope exit.
#define MESHMP_SCOPED_CAPABILITY MESHMP_THREAD_ANNOTATION_(scoped_lockable)
/// Data member readable/writable only while holding the named capability.
#define MESHMP_GUARDED_BY(x) MESHMP_THREAD_ANNOTATION_(guarded_by(x))
/// Pointer member whose pointee is guarded by the named capability.
#define MESHMP_PT_GUARDED_BY(x) MESHMP_THREAD_ANNOTATION_(pt_guarded_by(x))
/// Function that must be entered with the capability already held.
#define MESHMP_REQUIRES(...) \
  MESHMP_THREAD_ANNOTATION_(requires_capability(__VA_ARGS__))
/// Function that acquires the capability and returns holding it.
#define MESHMP_ACQUIRE(...) \
  MESHMP_THREAD_ANNOTATION_(acquire_capability(__VA_ARGS__))
/// Function that releases a held capability.
#define MESHMP_RELEASE(...) \
  MESHMP_THREAD_ANNOTATION_(release_capability(__VA_ARGS__))
/// Function that acquires the capability when it returns the given value.
#define MESHMP_TRY_ACQUIRE(...) \
  MESHMP_THREAD_ANNOTATION_(try_acquire_capability(__VA_ARGS__))
/// Function that must NOT be entered holding the capability (deadlock guard).
#define MESHMP_EXCLUDES(...) \
  MESHMP_THREAD_ANNOTATION_(locks_excluded(__VA_ARGS__))
/// Function returning a reference to the named capability.
#define MESHMP_RETURN_CAPABILITY(x) MESHMP_THREAD_ANNOTATION_(lock_returned(x))
/// Escape hatch: disables the analysis for one function. Use with a comment.
#define MESHMP_NO_THREAD_SAFETY_ANALYSIS \
  MESHMP_THREAD_ANNOTATION_(no_thread_safety_analysis)

namespace meshmp::chk {

/// The capability shared-state hot spots annotate against. Annotation-only:
/// the simulator runs on one thread, so acquiring it is a no-op.
class MESHMP_CAPABILITY("mutex") SimLock {
 public:
  SimLock() noexcept = default;
  SimLock(const SimLock&) = delete;
  SimLock& operator=(const SimLock&) = delete;

  void lock() noexcept MESHMP_ACQUIRE() {}
  void unlock() noexcept MESHMP_RELEASE() {}
};

/// RAII guard for SimLock; the annotated analogue of std::lock_guard.
class MESHMP_SCOPED_CAPABILITY SimLockGuard {
 public:
  explicit SimLockGuard(SimLock& lock) noexcept MESHMP_ACQUIRE(lock)
      : lock_(lock) {
    lock_.lock();
  }
  ~SimLockGuard() noexcept MESHMP_RELEASE() { lock_.unlock(); }
  SimLockGuard(const SimLockGuard&) = delete;
  SimLockGuard& operator=(const SimLockGuard&) = delete;

 private:
  SimLock& lock_;
};

}  // namespace meshmp::chk
