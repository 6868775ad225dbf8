#include "support/stats.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace hyades {
namespace {

TEST(LeastSquares, ExactLine) {
  const std::vector<double> xs = {1, 2, 3, 4};
  const std::vector<double> ys = {3, 5, 7, 9};  // y = 2x + 1
  const LinearFit f = least_squares(xs, ys);
  EXPECT_NEAR(f.slope, 2.0, 1e-12);
  EXPECT_NEAR(f.intercept, 1.0, 1e-12);
  EXPECT_NEAR(f.r2, 1.0, 1e-12);
  EXPECT_NEAR(f(10.0), 21.0, 1e-12);
}

TEST(LeastSquares, PaperGlobalSumFit) {
  // Section 4.2: latencies 4.0/8.3/12.8/18.2 us at log2(N) = 1..4 fit to
  // tgsum = 4.67*log2(N) - 0.95.
  const std::vector<double> xs = {1, 2, 3, 4};
  const std::vector<double> ys = {4.0, 8.3, 12.8, 18.2};
  // (An exact OLS fit of the four printed latencies gives slope 4.71;
  // the paper reports 4.67, presumably fit over the raw measurements.)
  const LinearFit f = least_squares(xs, ys);
  EXPECT_NEAR(f.slope, 4.67, 0.05);
  EXPECT_NEAR(f.intercept, -0.95, 0.03);
  EXPECT_GT(f.r2, 0.99);
}

TEST(LeastSquares, RejectsDegenerateInput) {
  const std::vector<double> one = {1.0};
  EXPECT_THROW(least_squares(one, one), std::invalid_argument);
  const std::vector<double> xs = {2.0, 2.0};
  const std::vector<double> ys = {1.0, 3.0};
  EXPECT_THROW(least_squares(xs, ys), std::invalid_argument);
  const std::vector<double> short_ys = {1.0};
  EXPECT_THROW(least_squares(xs, short_ys), std::invalid_argument);
}

TEST(RelativeError, Basics) {
  EXPECT_DOUBLE_EQ(relative_error(110.0, 100.0), 0.1);
  EXPECT_DOUBLE_EQ(relative_error(100.0, 100.0), 0.0);
  EXPECT_GT(relative_error(1.0, 0.0), 1.0);  // guarded by eps
}

}  // namespace
}  // namespace hyades
