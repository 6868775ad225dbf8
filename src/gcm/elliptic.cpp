#include "gcm/elliptic.hpp"

#include <algorithm>

namespace hyades::gcm {

EllipticOperator::EllipticOperator(const ModelConfig& cfg, const Decomp& dec,
                                   const TileGrid& grid)
    : dec_(dec), jacobi_(cfg.cg_jacobi) {
  const int ex = dec.ext_x();
  const int ey = dec.ext_y();
  wW_ = Array2D<double>(static_cast<std::size_t>(ex),
                        static_cast<std::size_t>(ey), 0.0);
  wS_ = Array2D<double>(static_cast<std::size_t>(ex),
                        static_cast<std::size_t>(ey), 0.0);
  diag_ = Array2D<double>(static_cast<std::size_t>(ex),
                          static_cast<std::size_t>(ey), 0.0);

  // Face depths H_f = sum_k hFac_f dz_k; the same face fractions used by
  // the velocity correction, which makes the projection exact.
  for (int i = 0; i < ex; ++i) {
    for (int j = 0; j < ey; ++j) {
      double hw = 0.0, hs = 0.0;
      for (int k = 0; k < cfg.nz; ++k) {
        hw += grid.hFacW(static_cast<std::size_t>(i),
                         static_cast<std::size_t>(j),
                         static_cast<std::size_t>(k)) *
              grid.dzf[static_cast<std::size_t>(k)];
        hs += grid.hFacS(static_cast<std::size_t>(i),
                         static_cast<std::size_t>(j),
                         static_cast<std::size_t>(k)) *
              grid.dzf[static_cast<std::size_t>(k)];
      }
      wW_(static_cast<std::size_t>(i), static_cast<std::size_t>(j)) =
          hw * grid.dyC / grid.dxC[static_cast<std::size_t>(j)];
      wS_(static_cast<std::size_t>(i), static_cast<std::size_t>(j)) =
          hs * grid.dxS[static_cast<std::size_t>(j)] / grid.dyC;
    }
  }

  for (int i = dec.halo; i < dec.halo + dec.snx; ++i) {
    for (int j = dec.halo; j < dec.halo + dec.sny; ++j) {
      const auto si = static_cast<std::size_t>(i);
      const auto sj = static_cast<std::size_t>(j);
      if (grid.depth(si, sj) <= 0) continue;  // land column
      diag_(si, sj) = wW_(si, sj) + wW_(si + 1, sj) + wS_(si, sj) +
                      wS_(si, sj + 1);
    }
  }
  ybuf_.assign(static_cast<std::size_t>(dec.sny), 0.0);
  factor_lines();
}

void EllipticOperator::factor_lines() {
  const int ex = dec_.ext_x();
  const int ey = dec_.ext_y();
  cp_ = Array2D<double>(static_cast<std::size_t>(ex),
                        static_cast<std::size_t>(ey), 0.0);
  inv_ = Array2D<double>(static_cast<std::size_t>(ex),
                         static_cast<std::size_t>(ey), 0.0);
  const int h = dec_.halo;
  for (int j = h; j < h + dec_.sny; ++j) {
    const auto sj = static_cast<std::size_t>(j);
    double prev_cp = 0.0;
    bool have_prev = false;
    for (int i = h; i < h + dec_.snx; ++i) {
      const auto si = static_cast<std::size_t>(i);
      const double b = diag_(si, sj);
      if (b <= 0) {  // land: decoupled identity row
        cp_(si, sj) = 0.0;
        inv_(si, sj) = 0.0;
        have_prev = false;
        continue;
      }
      // Sub/super couplings within the tile row; couplings into the halo
      // (another tile, or land) are dropped from the off-diagonals.
      const double a =
          (have_prev && i > h) ? -wW_(si, sj) : 0.0;
      const double c =
          (i + 1 < h + dec_.snx) ? -wW_(si + 1, sj) : 0.0;
      // Guard against an exactly-singular block (a fully isolated wet
      // zonal strip would make M a pure Neumann tridiagonal).
      const double denom =
          std::max(b - a * (have_prev ? prev_cp : 0.0), 1e-12 * b);
      inv_(si, sj) = 1.0 / denom;
      cp_(si, sj) = c / denom;
      prev_cp = cp_(si, sj);
      have_prev = true;
    }
  }

  // Meridional (y-direction) factors.
  cpy_ = Array2D<double>(static_cast<std::size_t>(ex),
                         static_cast<std::size_t>(ey), 0.0);
  invy_ = Array2D<double>(static_cast<std::size_t>(ex),
                          static_cast<std::size_t>(ey), 0.0);
  for (int i = h; i < h + dec_.snx; ++i) {
    const auto si = static_cast<std::size_t>(i);
    double prev_cp = 0.0;
    bool have_prev = false;
    for (int j = h; j < h + dec_.sny; ++j) {
      const auto sj = static_cast<std::size_t>(j);
      const double b = diag_(si, sj);
      if (b <= 0) {
        cpy_(si, sj) = 0.0;
        invy_(si, sj) = 0.0;
        have_prev = false;
        continue;
      }
      const double a = (have_prev && j > h) ? -wS_(si, sj) : 0.0;
      const double c = (j + 1 < h + dec_.sny) ? -wS_(si, sj + 1) : 0.0;
      const double denom =
          std::max(b - a * (have_prev ? prev_cp : 0.0), 1e-12 * b);
      invy_(si, sj) = 1.0 / denom;
      cpy_(si, sj) = c / denom;
      prev_cp = cpy_(si, sj);
      have_prev = true;
    }
  }
}

double EllipticOperator::apply(const Array2D<double>& p,
                               Array2D<double>& out) const {
  double flops = 0;
  for (int i = dec_.halo; i < dec_.halo + dec_.snx; ++i) {
    for (int j = dec_.halo; j < dec_.halo + dec_.sny; ++j) {
      const auto si = static_cast<std::size_t>(i);
      const auto sj = static_cast<std::size_t>(j);
      if (diag_(si, sj) <= 0) {
        out(si, sj) = 0.0;
        continue;
      }
      // L = -A: diag * p_c - sum w_f p_nb.
      out(si, sj) = diag_(si, sj) * p(si, sj) -
                    wW_(si, sj) * p(si - 1, sj) -
                    wW_(si + 1, sj) * p(si + 1, sj) -
                    wS_(si, sj) * p(si, sj - 1) -
                    wS_(si, sj + 1) * p(si, sj + 1);
      flops += 9.0;
    }
  }
  return flops;
}

double EllipticOperator::precondition(const Array2D<double>& r,
                                      Array2D<double>& z) const {
  double flops = 0;
  const int h = dec_.halo;
  if (jacobi_) {  // z = r / diag(L)
    for (int i = h; i < h + dec_.snx; ++i) {
      for (int j = h; j < h + dec_.sny; ++j) {
        const auto si = static_cast<std::size_t>(i);
        const auto sj = static_cast<std::size_t>(j);
        z(si, sj) = diag_(si, sj) > 0 ? r(si, sj) / diag_(si, sj) : 0.0;
        flops += 1.0;
      }
    }
    return flops;
  }

  // Thomas solves per line in both directions (restarting at land
  // breaks, where rows are decoupled identity blocks), averaged.
  // ---- zonal pass: z holds Mx^-1 r -------------------------------------
  for (int j = h; j < h + dec_.sny; ++j) {
    const auto sj = static_cast<std::size_t>(j);
    bool have_prev = false;
    double prev_z = 0.0;
    for (int i = h; i < h + dec_.snx; ++i) {
      const auto si = static_cast<std::size_t>(i);
      if (diag_(si, sj) <= 0) {
        z(si, sj) = 0.0;
        have_prev = false;
        continue;
      }
      const double a = (have_prev && i > h) ? -wW_(si, sj) : 0.0;
      z(si, sj) = (r(si, sj) - a * prev_z) * inv_(si, sj);
      prev_z = z(si, sj);
      have_prev = true;
      flops += 3.0;
    }
    bool have_next = false;
    double next_z = 0.0;
    for (int i = h + dec_.snx - 1; i >= h; --i) {
      const auto si = static_cast<std::size_t>(i);
      if (diag_(si, sj) <= 0) {
        have_next = false;
        continue;
      }
      if (have_next) {
        z(si, sj) -= cp_(si, sj) * next_z;
        flops += 2.0;
      }
      next_z = z(si, sj);
      have_next = true;
    }
  }

  // ---- meridional pass, accumulated: z = (Mx^-1 r + My^-1 r) / 2 -------
  for (int i = h; i < h + dec_.snx; ++i) {
    const auto si = static_cast<std::size_t>(i);
    bool have_prev = false;
    double prev_y = 0.0;
    double* ybuf = ybuf_.data();
    for (int j = h; j < h + dec_.sny; ++j) {
      const auto sj = static_cast<std::size_t>(j);
      const int jj = j - h;
      if (diag_(si, sj) <= 0) {
        ybuf[jj] = 0.0;
        have_prev = false;
        continue;
      }
      const double a = (have_prev && j > h) ? -wS_(si, sj) : 0.0;
      ybuf[jj] = (r(si, sj) - a * prev_y) * invy_(si, sj);
      prev_y = ybuf[jj];
      have_prev = true;
      flops += 3.0;
    }
    bool have_next = false;
    double next_y = 0.0;
    for (int j = h + dec_.sny - 1; j >= h; --j) {
      const auto sj = static_cast<std::size_t>(j);
      const int jj = j - h;
      if (diag_(si, sj) <= 0) {
        have_next = false;
        continue;
      }
      double yj = ybuf[jj];
      if (have_next) {
        yj -= cpy_(si, sj) * next_y;
        flops += 2.0;
      }
      next_y = yj;
      have_next = true;
      z(si, sj) = 0.5 * (z(si, sj) + yj);
      flops += 2.0;
    }
  }
  return flops;
}

}  // namespace hyades::gcm
