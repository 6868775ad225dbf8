// Rank waits -- MessageBus::recv and SmpSync::cross -- yield their core
// a bounded number of times before they sleep on their condition
// variable (support::yield_until).  Every wake event must end the wait
// in both phases:
//  - yield phase: waiter and poster share one core, so the poster runs
//    only when the waiter yields, and the waiter must not have slept;
//  - asleep: the poster posts once /proc shows the waiter sleeping, and
//    the waiter must have slept.
// Each bus wait carries a 1 s timeout, so a wake that never arrives
// fails as the timeout's runtime_error instead of hanging.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <exception>
#include <fstream>
#include <string>
#include <thread>

#include "cluster/message_bus.hpp"
#include "cluster/runtime.hpp"
#include "tests/support/one_core.hpp"

namespace hyades::cluster {
namespace {

constexpr int kWakeBudgetMs = 1000;

enum class Landing { kYieldPhase, kAsleep };

// Scheduler state of thread `tid` of this process: 'R' runnable, 'S'
// asleep, '?' if unreadable.
char thread_state(pid_t tid) {
  std::ifstream stat("/proc/self/task/" + std::to_string(tid) + "/stat");
  std::string line;
  std::getline(stat, line);
  const std::size_t close = line.rfind(')');  // the name may hold spaces
  return close == std::string::npos || close + 2 >= line.size()
             ? '?'
             : line[close + 2];
}

// Runs `wait` on a waiter thread and `post` on a poster thread, the post
// landing where `landing` says.  Returns the waiter's voluntary context
// switches during `wait`.
template <typename Wait, typename Post>
long race(Landing landing, Wait wait, Post post) {
  const bool one_core = landing == Landing::kYieldPhase;
  const int cpu = test::first_allowed_cpu();
  std::atomic<bool> poster_ready{false}, armed{false};
  std::atomic<pid_t> waiter_tid{0};
  long switches = -1;
  std::thread poster([&] {
    if (one_core) {
      EXPECT_TRUE(test::pin_this_thread(cpu));
    }
    poster_ready.store(true, std::memory_order_release);
    while (!armed.load(std::memory_order_acquire)) std::this_thread::yield();
    if (!one_core) {
      const pid_t tid = waiter_tid.load(std::memory_order_acquire);
      for (int i = 0; i < 5000 && thread_state(tid) != 'S'; ++i) {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
    }
    post();
  });
  std::thread waiter([&] {
    if (one_core) {
      EXPECT_TRUE(test::pin_this_thread(cpu));
    }
    waiter_tid.store(gettid(), std::memory_order_release);
    while (!poster_ready.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
    const long before = test::voluntary_switches();
    armed.store(true, std::memory_order_release);
    try {
      wait();
    } catch (const std::exception& e) {
      ADD_FAILURE() << "the wait ended in " << e.what();
    }
    switches = test::voluntary_switches() - before;
  });
  waiter.join();
  poster.join();
  return switches;
}

// A preemption or another process on the shared core can take the core
// when the waiter yields, so one round may miss the yield phase; a few
// rounds cannot all miss it.
template <typename Round>
bool caught_in_yield_phase(Round round) {
  for (int i = 0; i < 5; ++i) {
    if (round() == 0) return true;
  }
  return false;
}

// ---- the bus: a matching send, the peer's exit --------------------------

enum class BusEvent { kSend, kPeerExit };

long bus_round(Landing landing, BusEvent event) {
  MessageBus bus(2);
  return race(
      landing,
      [&] {
        switch (event) {
          case BusEvent::kSend:
            EXPECT_DOUBLE_EQ(bus.recv(1, 0, 3, kWakeBudgetMs).data.at(0), 42.0);
            break;
          case BusEvent::kPeerExit:
            EXPECT_THROW((void)bus.recv(1, 0, 3, kWakeBudgetMs), PeerExited);
            break;
        }
      },
      [&] {
        switch (event) {
          case BusEvent::kSend:
            bus.send(1, Message{0, 3, {42.0}, 0});
            break;
          case BusEvent::kPeerExit:
            bus.mark_exited(0);
            break;
        }
      });
}

class BusWake : public ::testing::TestWithParam<BusEvent> {};

TEST_P(BusWake, LandsInTheYieldPhase) {
  EXPECT_TRUE(caught_in_yield_phase(
      [&] { return bus_round(Landing::kYieldPhase, GetParam()); }))
      << "the receiver slept in every round";
}

TEST_P(BusWake, WakesASleepingReceiver) {
  EXPECT_GE(bus_round(Landing::kAsleep, GetParam()), 1);
}

INSTANTIATE_TEST_SUITE_P(
    Events, BusWake,
    ::testing::Values(BusEvent::kSend, BusEvent::kPeerExit),
    [](const ::testing::TestParamInfo<BusEvent>& event) {
      switch (event.param) {
        case BusEvent::kSend: return std::string("Send");
        case BusEvent::kPeerExit: return std::string("PeerExit");
      }
      return std::string("Unknown");
    });

// ---- the SMP sync: the last arrival, an abort ---------------------------

long barrier_round(Landing landing, bool abort) {
  SmpSync sync(0, 2);
  const long switches = race(
      landing,
      [&] {
        if (abort) {
          EXPECT_THROW((void)sync.cross(1.0, 1, 2), BarrierAborted);
        } else {
          const SmpSync::Crossing c = sync.cross(1.0, 1, 2);
          EXPECT_EQ(c.clock, 3.0);
          EXPECT_EQ(c.a, 11);
          EXPECT_EQ(c.b, 22);
        }
      },
      [&] {
        if (abort) {
          sync.abort();
        } else {
          (void)sync.cross(3.0, 10, 20);
        }
      });
  EXPECT_EQ(sync.crossings(), abort ? 0u : 1u);
  return switches;
}

TEST(BarrierWake, LastArrivalLandsInTheYieldPhase) {
  EXPECT_TRUE(caught_in_yield_phase(
      [] { return barrier_round(Landing::kYieldPhase, false); }))
      << "the sibling slept in every round";
}

TEST(BarrierWake, LastArrivalWakesASleepingSibling) {
  EXPECT_GE(barrier_round(Landing::kAsleep, false), 1);
}

TEST(BarrierWake, AbortReachesASiblingInItsYieldPhase) {
  EXPECT_TRUE(caught_in_yield_phase(
      [] { return barrier_round(Landing::kYieldPhase, true); }))
      << "the sibling slept in every round";
}

TEST(BarrierWake, AbortReachesASleepingSibling) {
  EXPECT_GE(barrier_round(Landing::kAsleep, true), 1);
}

// ---- many hand-offs: a lost wake-up would hit the 30 s backstop ---------

constexpr int kHandOffs = 20000;

TEST(RankWaits, BusPingPongCompletesEveryRoundTrip) {
  MessageBus bus(2);
  std::exception_ptr echo_error;
  std::thread echo([&] {
    try {
      for (int i = 0; i < kHandOffs; ++i) {
        Message m = bus.recv(1, 0, 1);
        bus.send(0, Message{1, 2, std::move(m.data), 0});
      }
    } catch (const std::exception&) {
      echo_error = std::current_exception();
    }
  });
  int returned = 0;
  try {
    for (int i = 0; i < kHandOffs; ++i) {
      bus.send(1, Message{0, 1, {static_cast<double>(i)}, 0});
      if (bus.recv(0, 1, 2).data.at(0) == static_cast<double>(i)) ++returned;
    }
  } catch (const std::exception& e) {
    ADD_FAILURE() << e.what();
  }
  echo.join();
  EXPECT_FALSE(echo_error);
  EXPECT_EQ(returned, kHandOffs);
}

TEST(RankWaits, TwoThreadBarrierCountsEveryCrossing) {
  SmpSync sync(0, 2);
  std::thread sibling([&] {
    for (int i = 0; i < kHandOffs; ++i) (void)sync.cross(0.0, 0, 0);
  });
  for (int i = 0; i < kHandOffs; ++i) (void)sync.cross(0.0, 0, 0);
  sibling.join();
  EXPECT_EQ(sync.crossings(), static_cast<std::uint64_t>(kHandOffs));
}

}  // namespace
}  // namespace hyades::cluster
