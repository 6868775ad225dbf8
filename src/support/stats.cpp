#include "support/stats.hpp"

#include <cmath>
#include <stdexcept>

namespace hyades {

LinearFit least_squares(std::span<const double> xs,
                        std::span<const double> ys) {
  if (xs.size() != ys.size()) {
    throw std::invalid_argument("least_squares: size mismatch");
  }
  if (xs.size() < 2) {
    throw std::invalid_argument("least_squares: need at least two points");
  }
  const auto n = static_cast<double>(xs.size());
  double sx = 0, sy = 0, sxx = 0, sxy = 0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    sx += xs[i];
    sy += ys[i];
    sxx += xs[i] * xs[i];
    sxy += xs[i] * ys[i];
  }
  const double denom = n * sxx - sx * sx;
  if (denom == 0.0) {
    throw std::invalid_argument("least_squares: degenerate x values");
  }
  LinearFit fit;
  fit.slope = (n * sxy - sx * sy) / denom;
  fit.intercept = (sy - fit.slope * sx) / n;

  const double ymean = sy / n;
  double ss_res = 0, ss_tot = 0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const double pred = fit(xs[i]);
    ss_res += (ys[i] - pred) * (ys[i] - pred);
    ss_tot += (ys[i] - ymean) * (ys[i] - ymean);
  }
  fit.r2 = ss_tot > 0 ? 1.0 - ss_res / ss_tot : 1.0;
  return fit;
}

double relative_error(double a, double b, double eps) {
  const double scale = std::max(std::abs(b), eps);
  return std::abs(a - b) / scale;
}

}  // namespace hyades
