#include "support/sync.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "tests/support/one_core.hpp"

namespace hyades::support {
namespace {

TEST(YieldUntil, ChecksBeforeEachYieldAndOnceAfterTheLast) {
  Mutex mu;
  MutexLock lock(mu);
  int calls = 0;
  EXPECT_FALSE(yield_until(mu, [&] {
    ++calls;
    return false;
  }));
  EXPECT_EQ(calls, kWaitYields + 1);
  calls = 0;
  EXPECT_TRUE(yield_until(mu, [&] {
    ++calls;
    return true;
  }));
  EXPECT_EQ(calls, 1);  // a ready predicate never yields
}

TEST(YieldUntil, ReleasesTheMutexWhileItYields) {
  // Waiter and setter share one core, so the setter runs only when the
  // waiter yields, and it needs the mutex the waiter holds.  Holding the
  // mutex through the yields would leave the flag unset.
  const int cpu = test::first_allowed_cpu();
  Mutex mu;
  bool flag = false;  // guarded by mu
  std::atomic<bool> setter_pinned{false}, locked{false};
  bool seen = false;
  std::thread setter([&] {
    EXPECT_TRUE(test::pin_this_thread(cpu));
    setter_pinned.store(true, std::memory_order_release);
    while (!locked.load(std::memory_order_acquire)) std::this_thread::yield();
    MutexLock lock(mu);
    flag = true;
  });
  std::thread waiter([&] {
    EXPECT_TRUE(test::pin_this_thread(cpu));
    while (!setter_pinned.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
    MutexLock lock(mu);
    locked.store(true, std::memory_order_release);
    seen = yield_until(mu, [&] {
      mu.assert_held();
      return flag;
    });
  });
  waiter.join();
  setter.join();
  EXPECT_TRUE(seen);
}

}  // namespace
}  // namespace hyades::support
