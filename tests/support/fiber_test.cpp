#include "support/fiber.hpp"

#include <gtest/gtest.h>

#include <cfenv>
#include <cstddef>
#include <string>
#include <vector>

#include "support/sync.hpp"

namespace hyades::support {
namespace {

// Fiber i waits until `turn` reaches its number, counted from the last
// fiber down, so every fiber but the last parks first.  The middle one
// runs a nested fiber run before it hands the turn on.
TEST(Fibers, TakeTurnsRoundRobinAndNest) {
  if (!kFibers) GTEST_SKIP() << "fibers need x86-64";
  Mutex mu;
  int turn = 0;
  std::vector<std::string> log;
  run_fibers(3, [&](std::size_t i) {
    MutexLock lock(mu);
    EXPECT_TRUE(fiber_wait_until(mu, [&] {
      mu.assert_held();
      return turn == 2 - static_cast<int>(i);
    }));
    EXPECT_EQ(fiber_index(), i);
    log.push_back(std::to_string(i));
    if (i == 1) {
      run_fibers(2, [&](std::size_t j) {
        log.push_back("inner " + std::to_string(j));
      });
      EXPECT_EQ(fiber_index(), i);
    }
    ++turn;
  });
  EXPECT_EQ(log, (std::vector<std::string>{"2", "1", "inner 0", "inner 1",
                                           "0"}));
}

// When every live fiber waits on what no fiber will change, each wait
// returns false once; a fiber that returned first is no part of it.
TEST(Fibers, EveryWaitOfAStuckRoundReturnsFalse) {
  if (!kFibers) GTEST_SKIP() << "fibers need x86-64";
  Mutex mu;
  std::vector<int> outcome(3, -1);
  run_fibers(3, [&](std::size_t i) {
    if (i == 2) return;
    MutexLock lock(mu);
    outcome[i] = fiber_wait_until(mu, [] { return false; }) ? 1 : 0;
  });
  EXPECT_EQ(outcome, (std::vector<int>{0, 0, -1}));
}

// Each fiber keeps its own floating-point modes (MXCSR and the x87
// control word), as a thread does, and starts with the caller's.
TEST(Fibers, EachFiberKeepsItsOwnRoundingMode) {
  if (!kFibers) GTEST_SKIP() << "fibers need x86-64";
  Mutex mu;
  bool second_ran = false;
  int seen_by_second = -1;
  int kept_by_first = -1;
  run_fibers(2, [&](std::size_t i) {
    MutexLock lock(mu);
    if (i == 0) {
      std::fesetround(FE_UPWARD);
      EXPECT_TRUE(fiber_wait_until(mu, [&] {
        mu.assert_held();
        return second_ran;
      }));
      kept_by_first = std::fegetround();
      std::fesetround(FE_TONEAREST);
    } else {
      seen_by_second = std::fegetround();
      second_ran = true;
    }
  });
  EXPECT_EQ(seen_by_second, FE_TONEAREST);
  EXPECT_EQ(kept_by_first, FE_UPWARD);
  EXPECT_EQ(std::fegetround(), FE_TONEAREST);
}

}  // namespace
}  // namespace hyades::support
