#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "support/logging.hpp"
#include "support/units.hpp"

namespace hyades {
namespace {

TEST(Units, TimeConversions) {
  EXPECT_DOUBLE_EQ(seconds_to_us(1.5), 1.5e6);
  EXPECT_DOUBLE_EQ(us_to_seconds(2.0e6), 2.0);
  EXPECT_DOUBLE_EQ(us_to_minutes(1.8e8), 3.0);
  // Round trip.
  EXPECT_DOUBLE_EQ(us_to_seconds(seconds_to_us(123.456)), 123.456);
}

TEST(Units, BandwidthIdentity) {
  // MByte/sec is numerically bytes/us.
  EXPECT_DOUBLE_EQ(mbytes_per_sec_to_bytes_per_us(110.0), 110.0);
  EXPECT_DOUBLE_EQ(mflops_to_flops_per_us(50.0), 50.0);
}

TEST(Logging, LevelThresholdRoundTrips) {
  const LogLevel before = log_level();
  set_log_level(LogLevel::kError);
  EXPECT_EQ(log_level(), LogLevel::kError);
  set_log_level(LogLevel::kDebug);
  EXPECT_EQ(log_level(), LogLevel::kDebug);
  set_log_level(before);
}

TEST(Logging, StreamInterfaceDoesNotCrashAcrossThreads) {
  const LogLevel before = log_level();
  set_log_level(LogLevel::kError);  // keep the test output quiet
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([t] {
      for (int i = 0; i < 50; ++i) {
        log_debug() << "thread " << t << " line " << i;
        log_info() << "info " << i;
      }
    });
  }
  for (auto& th : threads) th.join();
  set_log_level(before);
  SUCCEED();
}

TEST(Logging, SuppressedBelowThreshold) {
  const LogLevel before = log_level();
  set_log_level(LogLevel::kError);
  // These must be dropped silently (verified by not polluting stderr in
  // the test log; functionally we just exercise the path).
  log_warn() << "should be suppressed";
  log_info() << "also suppressed";
  set_log_level(before);
  SUCCEED();
}

}  // namespace
}  // namespace hyades
