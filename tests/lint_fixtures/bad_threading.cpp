// R4 fixture: raw threading primitives, banned everywhere under src/. This
// file stands in for any src/<subsystem>/ source. Lint-only — never
// compiled.

#include <atomic>  // LINT-EXPECT[R4]
#include <mutex>   // LINT-EXPECT[R4]

#include "chk/thread_annotations.hpp"

namespace fixture {

struct Counters {
  std::atomic<int> hits{0};  // LINT-EXPECT[R4]
};

inline void spawn_worker() {
  std::thread t([] {});  // LINT-EXPECT[R4]
  t.join();
}

inline int guarded_read() {
  static std::mutex mu;  // LINT-EXPECT[R4]
  std::lock_guard<std::mutex> lk(mu);  // LINT-EXPECT[R4]
  return 0;
}

inline void fenced() {
  std::atomic_thread_fence(std::memory_order_acquire);  // LINT-EXPECT[R4]
}

// Legal: chk::SimLock is the sanctioned (annotation-only) capability.
struct Guarded {
  chk::SimLock mu;
  int value MESHMP_GUARDED_BY(mu) = 0;
};

// Suppressed: an audited exception keeps its reason next to the use.
// meshmp-lint: raw-threading-ok(process-wide relaxed stats, host-side only)
inline long& host_stat_slot() {
  static std::atomic<long> slot{0};
  return reinterpret_cast<long&>(slot);
}

}  // namespace fixture
