#include "sim/scheduler.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace hyades::sim {
namespace {

TEST(SimTime, Conversions) {
  EXPECT_EQ(from_us(1.0), kPsPerUs);
  EXPECT_EQ(from_ns(1.0), kPsPerNs);
  EXPECT_DOUBLE_EQ(to_us(from_us(0.15)), 0.15);
  // 150 MByte/sec link: 150 bytes take 1 us.
  EXPECT_EQ(transfer_time(150, 150.0), kPsPerUs);
}

TEST(Scheduler, RunsInTimeOrder) {
  Scheduler s;
  std::vector<int> order;
  s.schedule_at(from_us(3.0), [&] { order.push_back(3); });
  s.schedule_at(from_us(1.0), [&] { order.push_back(1); });
  s.schedule_at(from_us(2.0), [&] { order.push_back(2); });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(s.now(), from_us(3.0));
}

TEST(Scheduler, TiesBreakByInsertionOrder) {
  Scheduler s;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    s.schedule_at(from_us(5.0), [&, i] { order.push_back(i); });
  }
  s.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Scheduler, ScheduleAfterUsesCurrentTime) {
  Scheduler s;
  SimTime seen = -1;
  s.schedule_at(from_us(2.0), [&] {
    s.schedule_after(from_us(3.0), [&] { seen = s.now(); });
  });
  s.run();
  EXPECT_EQ(seen, from_us(5.0));
}

TEST(Scheduler, RejectsPast) {
  Scheduler s;
  s.schedule_at(from_us(2.0), [] {});
  s.run();
  EXPECT_THROW(s.schedule_at(from_us(1.0), [] {}), std::invalid_argument);
}

TEST(Scheduler, EventsCanScheduleEvents) {
  Scheduler s;
  int count = 0;
  std::function<void()> chain = [&] {
    if (++count < 5) s.schedule_after(from_us(1.0), chain);
  };
  s.schedule_at(0, chain);
  s.run();
  EXPECT_EQ(count, 5);
  EXPECT_EQ(s.now(), from_us(4.0));
}

TEST(Scheduler, RunWithLimit) {
  Scheduler s;
  int count = 0;
  for (int i = 0; i < 10; ++i) {
    s.schedule_at(from_us(i), [&] { ++count; });
  }
  EXPECT_EQ(s.run(4), 4u);
  EXPECT_EQ(count, 4);
  EXPECT_EQ(s.pending(), 6u);
  s.run();
  EXPECT_EQ(count, 10);
}

TEST(Scheduler, Determinism) {
  auto run_once = [] {
    Scheduler s;
    std::vector<int> order;
    for (int i = 0; i < 50; ++i) {
      s.schedule_at(from_us((i * 7) % 13), [&, i] { order.push_back(i); });
    }
    s.run();
    return order;
  };
  EXPECT_EQ(run_once(), run_once());
}

}  // namespace
}  // namespace hyades::sim
