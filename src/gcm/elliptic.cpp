#include "gcm/elliptic.hpp"

#include <algorithm>
#include <cassert>
#include <type_traits>

namespace hyades::gcm {

namespace {
// Offset of cell (i, j) in a tile array with rows of ny.
inline std::size_t cell(std::size_t ny, int i, int j) {
  return static_cast<std::size_t>(i) * ny + static_cast<std::size_t>(j);
}

// Two lines of a preconditioner pass side by side: a GCC vector of two
// doubles, one SSE2 register on baseline x86-64.  Each lane does the
// scalar code's IEEE operations on its own line's operands, and a
// comparison sets a lane's mask bits where it holds.
using Pair = double __attribute__((vector_size(16)));

// Cell c of one line (V = double), or cells c and c + s of two (Pair).
template <typename V>
V get(const double* f, std::size_t c, std::size_t s) {
  if constexpr (std::is_same_v<V, Pair>) {
    return Pair{f[c], f[c + s]};
  } else {
    (void)s;
    return f[c];
  }
}

template <typename V>
void put(double* f, std::size_t c, std::size_t s, V v) {
  if constexpr (std::is_same_v<V, Pair>) {
    f[c] = v[0];
    f[c + s] = v[1];
  } else {
    (void)s;
    f[c] = v;
  }
}

// Runs step(V{}, l) for the lines l of [l0, l1): two at a time as Pair,
// then an odd last line as double.
template <typename Step>
void over_lines(int l0, int l1, const Step& step) {
  int l = l0;
  for (; l + 1 < l1; l += 2) step(Pair{}, l);
  if (l < l1) step(0.0, l);
}

// out = L p over rows [i0, i1) x [j0, j1); with kDot, also returns
// <p, out> in (i, j) order through *dot.
template <bool kDot>
long apply_rows(int i0, int i1, int j0, int j1, std::size_t ny,
                const double* dg, const double* ww, const double* ws,
                const double* pp, double* o, double* dot) {
  long flops = 0;
  double s = 0.0;
  for (int i = i0; i < i1; ++i) {
    for (int j = j0; j < j1; ++j) {
      const std::size_t c = cell(ny, i, j);
      double v = 0.0;  // land: a decoupled zero row
      if (dg[c] > 0) {
        // L = -A: diag * p_c - sum w_f p_nb.
        v = dg[c] * pp[c] - ww[c] * pp[c - ny] - ww[c + ny] * pp[c + ny] -
            ws[c] * pp[c - 1] - ws[c + 1] * pp[c + 1];
        flops += 9;
      }
      o[c] = v;
      if constexpr (kDot) s += pp[c] * v;
    }
  }
  if constexpr (kDot) *dot = s;
  return flops;
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

  // One precondition's flops: 3 per wet cell forward in each direction
  // and 2 to average, plus 2 per wet cell whose next cell along a line
  // is wet (the halo's diagonal is 0).
  const std::size_t ny = diag_.ny();
  const double* dg = diag_.data();
  line_flops_ = 0;
  for (int i = h; i < h + dec_.snx; ++i) {
    for (int j = h; j < h + dec_.sny; ++j) {
      const std::size_t c = cell(ny, i, j);
      if (dg[c] <= 0) continue;
      line_flops_ += 8 + (dg[c + ny] > 0 ? 2 : 0) + (dg[c + 1] > 0 ? 2 : 0);
    }
  }
}

double EllipticOperator::apply(const Array2D<double>& p,
                               Array2D<double>& out, double* p_dot_out) const {
  assert(p.nx() == diag_.nx() && p.ny() == diag_.ny() &&
         out.nx() == diag_.nx() && out.ny() == diag_.ny());
  const int i0 = dec_.halo, i1 = i0 + dec_.snx;
  const int j0 = dec_.halo, j1 = j0 + dec_.sny;
  const std::size_t ny = diag_.ny();
  const long flops =
      p_dot_out != nullptr
          ? apply_rows<true>(i0, i1, j0, j1, ny, diag_.data(), wW_.data(),
                             wS_.data(), p.data(), out.data(), p_dot_out)
          : apply_rows<false>(i0, i1, j0, j1, ny, diag_.data(), wW_.data(),
                              wS_.data(), p.data(), out.data(), nullptr);
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
  // lines of a pass advance together, two at a time in a Pair: line l
  // carries its last wet value in carry[l].  Which cells couple is the
  // lines' static structure, read from diag_ (0 on land and in the
  // halo): a forward step couples a wet cell to a wet previous cell, a
  // back substitution to a wet next cell, as factor_lines did.  Selects,
  // not masks, pick the values (-x * 0.0 is -0.0).  A land cell leaves
  // the forward carry stale, as the per-cell loops did: the sign of +0.0
  // times it reaches the next wet cell when its r is -0.0.
  double* carry = carry_.data();
  const auto wet = [dg](auto v, std::size_t c, std::size_t s) {
    return get<decltype(v)>(dg, c, s) > decltype(v){};
  };
  // x = (r - a * carry) * inv on the wet cells of the lines through c
  // (lane cells s apart), 0.0 on land, where the sub-diagonal a is -w
  // after a wet cell (`prev` cells back) and +0.0 after land or the halo.
  const auto forward = [&](auto v, std::size_t c, std::size_t s, int l,
                           std::size_t prev, const double* wf,
                           const double* inv, double* x) {
    using V = decltype(v);
    const auto sl = static_cast<std::size_t>(l);
    const V car = get<V>(carry, sl, 1);
    const V a = wet(v, c - prev, s) ? -get<V>(wf, c, s) : V{};
    const V xf = (get<V>(rr, c, s) - a * car) * get<V>(inv, c, s);
    const auto here = wet(v, c, s);
    put<V>(x, c, s, here ? xf : V{});
    put<V>(carry, sl, 1, here ? xf : car);
  };
  // Returns x - cp * carry where the cell and the next one along its
  // line (`next` cells on) are wet, else x, and carries it.
  const auto backward = [&](auto v, std::size_t c, std::size_t s, int l,
                            std::size_t next, const double* cpf,
                            const double* x) {
    using V = decltype(v);
    const auto sl = static_cast<std::size_t>(l);
    const V car = get<V>(carry, sl, 1);
    const V xc = get<V>(x, c, s);
    const V xb = (wet(v, c, s) & wet(v, c + next, s))
                     ? xc - get<V>(cpf, c, s) * car
                     : xc;
    put<V>(carry, sl, 1, xb);
    return xb;
  };

  // ---- zonal pass: z holds Mx^-1 r -------------------------------------
  // The zonal lines j run along i; lines j and j+1 are adjacent cells.
  const double* ww = wW_.data();
  const double* iv = inv_.data();
  const double* cp = cp_.data();
  std::fill(carry + j0, carry + j1, 0.0);
  for (int i = i0; i < i1; ++i) {
    over_lines(j0, j1, [&](auto v, int j) {
      forward(v, cell(ny, i, j), 1, j, ny, ww, iv, zz);
    });
  }
  for (int i = i1 - 1; i >= i0; --i) {
    over_lines(j0, j1, [&](auto v, int j) {
      const std::size_t c = cell(ny, i, j);
      put(zz, c, 1, backward(v, c, 1, j, ny, cp, zz));
    });
  }

  // ---- meridional pass, accumulated: z = (Mx^-1 r + My^-1 r) / 2 -------
  // ybuf_ holds My^-1 r until the back substitution averages it into z.
  // The meridional lines i run along j, ny cells apart; kLineBlock of
  // them at a time keep their cells' cache lines in L1 from one j to the
  // next.
  const double* ws = wS_.data();
  const double* ivy = invy_.data();
  const double* cpy = cpy_.data();
  double* y = ybuf_.data();
  for (int ib = i0; ib < i1; ib += kLineBlock) {
    const int ie = std::min(i1, ib + kLineBlock);
    std::fill(carry + ib, carry + ie, 0.0);
    for (int j = j0; j < j1; ++j) {
      over_lines(ib, ie, [&](auto v, int i) {
        forward(v, cell(ny, i, j), ny, i, 1, ws, ivy, y);
      });
    }
    for (int j = j1 - 1; j >= j0; --j) {
      over_lines(ib, ie, [&](auto v, int i) {
        using V = decltype(v);
        const std::size_t c = cell(ny, i, j);
        const V yb = backward(v, c, ny, i, 1, cpy, y);
        const V zc = get<V>(zz, c, ny);
        put<V>(zz, c, ny, wet(v, c, ny) ? 0.5 * (zc + yb) : zc);
      });
    }
  }
  return static_cast<double>(line_flops_);
}

}  // namespace hyades::gcm
