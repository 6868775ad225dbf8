#include "support/host_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <latch>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace hyades::support {
namespace {

using namespace std::chrono_literals;

TEST(HostPool, ThreadsCountTheCaller) {
  EXPECT_EQ(HostPool(0).threads(), 1);
  EXPECT_EQ(HostPool(-2).threads(), 1);
  EXPECT_EQ(HostPool(3).threads(), 4);
  EXPECT_FALSE(allowed_cpus().empty());
}

// A confinement narrows the calling thread's mask to what it names, the
// threads it starts inherit that mask, and the mask it found comes back
// when it ends, also from inside another confinement.
TEST(CpuConfinement, NarrowsTheThreadAndRestoresTheMaskItFound) {
  const std::vector<int> all = allowed_cpus();
  {
    const CpuConfinement first({all.front()});
    EXPECT_EQ(allowed_cpus(), std::vector<int>{all.front()});
    std::vector<int> child;
    std::thread([&] { child = allowed_cpus(); }).join();
    EXPECT_EQ(child, std::vector<int>{all.front()});
    {
      const CpuConfinement last({all.back()});
      EXPECT_EQ(allowed_cpus(), std::vector<int>{all.back()});
    }
    EXPECT_EQ(allowed_cpus(), std::vector<int>{all.front()});
  }
  EXPECT_EQ(allowed_cpus(), all);
}

TEST(HostPool, WithoutHelpersRunsEveryTaskOnTheCaller) {
  HostPool pool(0);
  std::vector<std::thread::id> ran(5);
  pool.run(ran.size(),
           [&](std::size_t i) { ran[i] = std::this_thread::get_id(); });
  for (const std::thread::id id : ran) {
    EXPECT_EQ(id, std::this_thread::get_id());
  }
}

TEST(HostPool, MoreTasksThanThreadsRunOnceEach) {
  HostPool pool(2);
  for (int region = 0; region < 50; ++region) {
    std::vector<int> runs(101, 0);
    std::mutex mu;
    std::set<std::thread::id> threads;
    pool.run(runs.size(), [&](std::size_t i) {
      ++runs[i];  // each index is claimed by one thread only
      std::lock_guard<std::mutex> lock(mu);
      threads.insert(std::this_thread::get_id());
    });
    for (const int r : runs) ASSERT_EQ(r, 1);
    EXPECT_LE(threads.size(), 3u);
  }
}

TEST(HostPool, ThrowSurfacesOnTheCallerAfterEveryTaskFinished) {
  HostPool pool(3);
  std::atomic<int> finished{0};
  const auto region = [&](std::size_t i) {
    // The throwers fail at once; the others are still running then.
    if (i == 5 || i == 2) {
      throw std::runtime_error("task " + std::to_string(i));
    }
    std::this_thread::sleep_for(2ms);
    finished.fetch_add(1, std::memory_order_relaxed);
  };
  try {
    pool.run(12, region);
    ADD_FAILURE() << "the region's exception did not surface";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "task 2");  // the lowest throwing index
    EXPECT_EQ(finished.load(std::memory_order_relaxed), 10);
  }
  // The pool stays usable.
  std::atomic<int> after{0};
  pool.run(8, [&](std::size_t) {
    after.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(after.load(std::memory_order_relaxed), 8);
}

// Counts the helper threads that have exited: a thread_local's
// destructor runs as its thread ends.
std::atomic<int> g_exited{0};
struct ExitProbe {
  bool armed = false;
  ~ExitProbe() {
    if (armed) g_exited.fetch_add(1, std::memory_order_relaxed);
  }
};
thread_local ExitProbe t_probe;

TEST(HostPool, DestructionJoinsTheHelpers) {
  g_exited.store(0, std::memory_order_relaxed);
  const std::thread::id caller = std::this_thread::get_id();
  {
    HostPool pool(3);
    // Four tasks that each wait for all four: every thread takes one.
    std::latch all(4);
    pool.run(4, [&](std::size_t) {
      if (std::this_thread::get_id() != caller) t_probe.armed = true;
      all.arrive_and_wait();
    });
    EXPECT_EQ(g_exited.load(std::memory_order_relaxed), 0);
  }
  EXPECT_EQ(g_exited.load(std::memory_order_relaxed), 3);
}

}  // namespace
}  // namespace hyades::support
