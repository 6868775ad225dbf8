#include "gcm/elliptic3.hpp"

#include <algorithm>

namespace hyades::gcm {

namespace {
inline double at(const Array3D<double>& f, int i, int j, int k) {
  return f(static_cast<std::size_t>(i), static_cast<std::size_t>(j),
           static_cast<std::size_t>(k));
}
inline double& at(Array3D<double>& f, int i, int j, int k) {
  return f(static_cast<std::size_t>(i), static_cast<std::size_t>(j),
           static_cast<std::size_t>(k));
}
}  // namespace

EllipticOperator3::EllipticOperator3(const ModelConfig& cfg, const Decomp& dec,
                                     const TileGrid& grid)
    : cfg_(cfg), dec_(dec), grid_(grid) {
  const auto ex = static_cast<std::size_t>(dec.ext_x());
  const auto ey = static_cast<std::size_t>(dec.ext_y());
  const auto ez = static_cast<std::size_t>(cfg.nz);
  for (Array3D<double>* a : {&wW_, &wS_, &wT_, &diag_, &cp_, &inv_}) {
    *a = Array3D<double>(ex, ey, ez, 0.0);
  }

  // Face weights (the same geometry the velocity correction uses, which
  // makes the 3-D projection exact).
  for (int i = 0; i < dec.ext_x(); ++i) {
    for (int j = 0; j < dec.ext_y(); ++j) {
      const auto sj = static_cast<std::size_t>(j);
      for (int k = 0; k < cfg.nz; ++k) {
        const double dz = grid.dzf[static_cast<std::size_t>(k)];
        at(wW_, i, j, k) = grid.hFacW(static_cast<std::size_t>(i), sj,
                                      static_cast<std::size_t>(k)) *
                           grid.dyC * dz / grid.dxC[sj];
        at(wS_, i, j, k) = grid.hFacS(static_cast<std::size_t>(i), sj,
                                      static_cast<std::size_t>(k)) *
                           grid.dxS[sj] * dz / grid.dyC;
        if (k > 0 &&
            grid.hFacC(static_cast<std::size_t>(i), sj,
                       static_cast<std::size_t>(k)) > 0 &&
            grid.hFacC(static_cast<std::size_t>(i), sj,
                       static_cast<std::size_t>(k - 1)) > 0) {
          const double dzc = grid.zC[static_cast<std::size_t>(k)] -
                             grid.zC[static_cast<std::size_t>(k - 1)];
          at(wT_, i, j, k) = grid.rAc[sj] / dzc;
        }
      }
    }
  }

  const int h = dec.halo;
  for (int i = h; i < h + dec.snx; ++i) {
    for (int j = h; j < h + dec.sny; ++j) {
      for (int k = 0; k < cfg.nz; ++k) {
        if (grid.hFacC(static_cast<std::size_t>(i), static_cast<std::size_t>(j),
                       static_cast<std::size_t>(k)) <= 0) {
          continue;
        }
        const double below = (k + 1 < cfg.nz) ? at(wT_, i, j, k + 1) : 0.0;
        at(diag_, i, j, k) = at(wW_, i, j, k) + at(wW_, i + 1, j, k) +
                             at(wS_, i, j, k) + at(wS_, i, j + 1, k) +
                             at(wT_, i, j, k) + below;
      }
    }
  }

  // Thomas factors of the column tridiagonal (full diagonal kept, so M
  // remains SPD even where columns decouple).
  for (int i = h; i < h + dec.snx; ++i) {
    for (int j = h; j < h + dec.sny; ++j) {
      double prev_cp = 0.0;
      bool have_prev = false;
      for (int k = 0; k < cfg.nz; ++k) {
        const double b = at(diag_, i, j, k);
        if (b <= 0) {
          have_prev = false;
          continue;
        }
        const double a = (have_prev && k > 0) ? -at(wT_, i, j, k) : 0.0;
        const double c = (k + 1 < cfg.nz) ? -at(wT_, i, j, k + 1) : 0.0;
        const double denom =
            std::max(b - a * (have_prev ? prev_cp : 0.0), 1e-12 * b);
        at(inv_, i, j, k) = 1.0 / denom;
        at(cp_, i, j, k) = c / denom;
        prev_cp = at(cp_, i, j, k);
        have_prev = true;
      }
    }
  }
}

double EllipticOperator3::apply(const Array3D<double>& p, Array3D<double>& out,
                                double* p_dot_out) const {
  double flops = 0;
  double s = 0.0;
  const int h = dec_.halo;
  const int nz = cfg_.nz;
  for (int i = h; i < h + dec_.snx; ++i) {
    for (int j = h; j < h + dec_.sny; ++j) {
      for (int k = 0; k < nz; ++k) {
        const double d = at(diag_, i, j, k);
        double acc = 0.0;  // land: a decoupled zero row
        if (d > 0) {
          acc = d * at(p, i, j, k);
          acc -= at(wW_, i, j, k) * at(p, i - 1, j, k);
          acc -= at(wW_, i + 1, j, k) * at(p, i + 1, j, k);
          acc -= at(wS_, i, j, k) * at(p, i, j - 1, k);
          acc -= at(wS_, i, j + 1, k) * at(p, i, j + 1, k);
          if (k > 0) acc -= at(wT_, i, j, k) * at(p, i, j, k - 1);
          if (k + 1 < nz) acc -= at(wT_, i, j, k + 1) * at(p, i, j, k + 1);
          flops += 13.0;
        }
        at(out, i, j, k) = acc;
        if (p_dot_out != nullptr) s += at(p, i, j, k) * acc;
      }
    }
  }
  if (p_dot_out != nullptr) *p_dot_out = s;
  return flops;
}

double EllipticOperator3::precondition(const Array3D<double>& r,
                                       Array3D<double>& z) const {
  double flops = 0;
  const int h = dec_.halo;
  const int nz = cfg_.nz;
  for (int i = h; i < h + dec_.snx; ++i) {
    for (int j = h; j < h + dec_.sny; ++j) {
      bool have_prev = false;
      double prev_z = 0.0;
      for (int k = 0; k < nz; ++k) {
        if (at(diag_, i, j, k) <= 0) {
          at(z, i, j, k) = 0.0;
          have_prev = false;
          continue;
        }
        const double a = (have_prev && k > 0) ? -at(wT_, i, j, k) : 0.0;
        at(z, i, j, k) = (at(r, i, j, k) - a * prev_z) * at(inv_, i, j, k);
        prev_z = at(z, i, j, k);
        have_prev = true;
        flops += 3.0;
      }
      bool have_next = false;
      double next_z = 0.0;
      for (int k = nz - 1; k >= 0; --k) {
        if (at(diag_, i, j, k) <= 0) {
          have_next = false;
          continue;
        }
        if (have_next) {
          at(z, i, j, k) -= at(cp_, i, j, k) * next_z;
          flops += 2.0;
        }
        next_z = at(z, i, j, k);
        have_next = true;
      }
    }
  }
  return flops;
}

}  // namespace hyades::gcm
