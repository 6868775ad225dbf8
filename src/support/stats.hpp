// Small statistics helpers: least-squares linear fits and relative
// error.  The paper fits tgsum = C*log2(N) + b by least squares (Section
// 4.2); bench_sec42_gsum reproduces that fit with LinearFit.
#pragma once

#include <span>
#include <vector>

namespace hyades {

struct LinearFit {
  double slope = 0.0;
  double intercept = 0.0;
  double r2 = 0.0;  // coefficient of determination

  double operator()(double x) const { return slope * x + intercept; }
};

// Ordinary least-squares fit y = slope*x + intercept.  Requires
// xs.size() == ys.size() and at least two distinct x values.
LinearFit least_squares(std::span<const double> xs, std::span<const double> ys);

// Relative error |a-b| / max(|b|, eps); used pervasively by tests that
// compare measured values against the paper's tables.
double relative_error(double a, double b, double eps = 1e-300);

}  // namespace hyades
