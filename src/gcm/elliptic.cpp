#include "gcm/elliptic.hpp"

#include <algorithm>
#include <cassert>

namespace hyades::gcm {

namespace {
// Offset of cell (i, j) in a tile array with rows of ny.
inline std::size_t cell(std::size_t ny, int i, int j) {
  return static_cast<std::size_t>(i) * ny + static_cast<std::size_t>(j);
}
}  // namespace

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
  ybuf_.assign(diag_.size(), 0.0);
  carry_.assign(static_cast<std::size_t>(std::max(ex, ey)), 0.0);
  open_.assign(carry_.size(), 0);
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
  assert(p.nx() == diag_.nx() && p.ny() == diag_.ny() &&
         out.nx() == diag_.nx() && out.ny() == diag_.ny());
  const std::size_t ny = diag_.ny();
  const double* dg = diag_.data();
  const double* ww = wW_.data();
  const double* ws = wS_.data();
  const double* pp = p.data();
  double* o = out.data();
  long flops = 0;
  for (int i = dec_.halo; i < dec_.halo + dec_.snx; ++i) {
    for (int j = dec_.halo; j < dec_.halo + dec_.sny; ++j) {
      const std::size_t c = cell(ny, i, j);
      if (dg[c] <= 0) {
        o[c] = 0.0;
        continue;
      }
      // L = -A: diag * p_c - sum w_f p_nb.
      o[c] = dg[c] * pp[c] - ww[c] * pp[c - ny] - ww[c + ny] * pp[c + ny] -
             ws[c] * pp[c - 1] - ws[c + 1] * pp[c + 1];
      flops += 9;
    }
  }
  return static_cast<double>(flops);
}

double EllipticOperator::precondition(const Array2D<double>& r,
                                      Array2D<double>& z) const {
  assert(r.nx() == diag_.nx() && r.ny() == diag_.ny() &&
         z.nx() == diag_.nx() && z.ny() == diag_.ny());
  const std::size_t ny = diag_.ny();
  const int h = dec_.halo;
  const int i0 = h, i1 = h + dec_.snx, j0 = h, j1 = h + dec_.sny;
  const double* dg = diag_.data();
  const double* rr = r.data();
  double* zz = z.data();
  if (jacobi_) {  // z = r / diag(L)
    for (int i = i0; i < i1; ++i) {
      for (int j = j0; j < j1; ++j) {
        const std::size_t c = cell(ny, i, j);
        zz[c] = dg[c] > 0 ? rr[c] / dg[c] : 0.0;
      }
    }
    return static_cast<double>(dec_.snx) * static_cast<double>(dec_.sny);
  }

  // Thomas solves per line in both directions (restarting at land
  // breaks, where rows are decoupled identity blocks), averaged.  All
  // lines of a pass advance together, the line index innermost: line l
  // carries its last value and whether its previous cell was wet.
  long flops = 0;
  double* carry = carry_.data();
  int* open = open_.data();
  // ---- zonal pass: z holds Mx^-1 r -------------------------------------
  const double* ww = wW_.data();
  const double* iv = inv_.data();
  const double* cp = cp_.data();
  std::fill(carry + j0, carry + j1, 0.0);
  std::fill(open + j0, open + j1, 0);
  for (int i = i0; i < i1; ++i) {
    for (int j = j0; j < j1; ++j) {
      const std::size_t c = cell(ny, i, j);
      if (dg[c] <= 0) {
        zz[c] = 0.0;
        open[j] = 0;
        continue;
      }
      const double a = open[j] ? -ww[c] : 0.0;
      zz[c] = (rr[c] - a * carry[j]) * iv[c];
      carry[j] = zz[c];
      open[j] = 1;
      flops += 3;
    }
  }
  std::fill(open + j0, open + j1, 0);
  for (int i = i1 - 1; i >= i0; --i) {
    for (int j = j0; j < j1; ++j) {
      const std::size_t c = cell(ny, i, j);
      if (dg[c] <= 0) {
        open[j] = 0;
        continue;
      }
      if (open[j]) {
        zz[c] -= cp[c] * carry[j];
        flops += 2;
      }
      carry[j] = zz[c];
      open[j] = 1;
    }
  }

  // ---- meridional pass, accumulated: z = (Mx^-1 r + My^-1 r) / 2 -------
  // ybuf_ holds My^-1 r until the back substitution averages it into z.
  const double* ws = wS_.data();
  const double* ivy = invy_.data();
  const double* cpy = cpy_.data();
  double* y = ybuf_.data();
  std::fill(carry + i0, carry + i1, 0.0);
  std::fill(open + i0, open + i1, 0);
  for (int j = j0; j < j1; ++j) {
    for (int i = i0; i < i1; ++i) {
      const std::size_t c = cell(ny, i, j);
      if (dg[c] <= 0) {
        open[i] = 0;
        continue;
      }
      const double a = open[i] ? -ws[c] : 0.0;
      y[c] = (rr[c] - a * carry[i]) * ivy[c];
      carry[i] = y[c];
      open[i] = 1;
      flops += 3;
    }
  }
  std::fill(open + i0, open + i1, 0);
  for (int j = j1 - 1; j >= j0; --j) {
    for (int i = i0; i < i1; ++i) {
      const std::size_t c = cell(ny, i, j);
      if (dg[c] <= 0) {
        open[i] = 0;
        continue;
      }
      double yj = y[c];
      if (open[i]) {
        yj -= cpy[c] * carry[i];
        flops += 2;
      }
      carry[i] = yj;
      open[i] = 1;
      zz[c] = 0.5 * (zz[c] + yj);
      flops += 2;
    }
  }
  return static_cast<double>(flops);
}

}  // namespace hyades::gcm
