#include "gcm/kernels.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <utility>
#include <vector>

#include "gcm/eos.hpp"

namespace hyades::gcm::kernels {

namespace {
// Terse local accessors, checked by the Array asserts in debug builds.
inline double at(const Array3D<double>& f, int i, int j, int k) {
  return f(static_cast<std::size_t>(i), static_cast<std::size_t>(j),
           static_cast<std::size_t>(k));
}
inline double& at(Array3D<double>& f, int i, int j, int k) {
  return f(static_cast<std::size_t>(i), static_cast<std::size_t>(j),
           static_cast<std::size_t>(k));
}
inline double at(const Array2D<double>& f, int i, int j) {
  return f(static_cast<std::size_t>(i), static_cast<std::size_t>(j));
}
inline double& at(Array2D<double>& f, int i, int j) {
  return f(static_cast<std::size_t>(i), static_cast<std::size_t>(j));
}
inline double m1(const std::vector<double>& v, int j) {
  return v[static_cast<std::size_t>(j)];
}

// The contiguous k column at (i, j).  The Array asserts never see walks
// of these pointers, so each kernel that walks them asserts once, before
// its loops, that its window plus its stencil reach is `inside`.
inline const double* col(const Array3D<double>& f, int i, int j) {
  return f.column(static_cast<std::size_t>(i), static_cast<std::size_t>(j));
}
inline double* col(Array3D<double>& f, int i, int j) {
  return f.column(static_cast<std::size_t>(i), static_cast<std::size_t>(j));
}

// True when window r, widened by `lo` cells below i0/j0 and `hi` cells
// at and beyond i1/j1, lies inside every array, each holding nz levels.
template <typename... Arrays>
bool inside(const Range& r, int lo, int hi, int nz, const Arrays&... fs) {
  const auto fits = [&](const Array3D<double>& f) {
    return r.i0 - lo >= 0 && r.j0 - lo >= 0 &&
           r.i1 + hi <= static_cast<int>(f.nx()) &&
           r.j1 + hi <= static_cast<int>(f.ny()) &&
           nz <= static_cast<int>(f.nz());
  };
  return empty(r) || (fits(fs) && ...);
}

// Sweeps the columns of r in (i, j) order, computing every horizontal
// face once: xfaces(i, j, out) fills out[0..nz) for the west faces of
// column (i, j), yfaces for its south faces, and column(i, j, w, e, s, n)
// uses them.  Column i-1's east faces are carried as column i's west
// faces in a (j, k) plane, row j-1's north faces in a k row.
template <typename XFaces, typename YFaces, typename Column>
void face_sweep(const Range& r, int nz, XFaces xfaces, YFaces yfaces,
                Column column) {
  if (empty(r)) return;
  const auto nzs = static_cast<std::size_t>(nz);
  const auto plane = static_cast<std::size_t>(r.j1 - r.j0) * nzs;
  std::vector<double> buf(2 * plane + 2 * nzs);
  double* west = buf.data();
  double* east = west + plane;
  double* south = east + plane;
  double* north = south + nzs;
  for (int j = r.j0; j < r.j1; ++j) {
    xfaces(r.i0, j, west + static_cast<std::size_t>(j - r.j0) * nzs);
  }
  for (int i = r.i0; i < r.i1; ++i) {
    yfaces(i, r.j0, south);
    for (int j = r.j0; j < r.j1; ++j) {
      const std::size_t off = static_cast<std::size_t>(j - r.j0) * nzs;
      xfaces(i + 1, j, east + off);
      yfaces(i, j + 1, north);
      column(i, j, west + off, east + off, south, north);
      std::swap(south, north);
    }
    std::swap(west, east);
  }
}
}  // namespace

Range extended(const Decomp& dec, int e) {
  return Range{dec.halo - e, dec.halo + dec.snx + e, dec.halo - e,
               dec.halo + dec.sny + e};
}

Range interior(const Decomp& dec, const Range& r, int margin) {
  const int h = dec.halo;
  Range ri = r;
  if (dec.neighbors[comm::kWest] >= 0) ri.i0 = std::max(r.i0, 2 * h - margin);
  if (dec.neighbors[comm::kEast] >= 0) {
    ri.i1 = std::min(r.i1, h + dec.snx - h + margin);
  }
  if (dec.neighbors[comm::kSouth] >= 0) ri.j0 = std::max(r.j0, 2 * h - margin);
  if (dec.neighbors[comm::kNorth] >= 0) {
    ri.j1 = std::min(r.j1, h + dec.sny - h + margin);
  }
  if (empty(ri)) ri = Range{r.i0, r.i0, r.j0, r.j0};
  return ri;
}

int rim(const Range& r, const Range& ri, std::array<Range, 4>& out) {
  if (empty(ri)) {
    out[0] = r;
    return empty(r) ? 0 : 1;
  }
  int n = 0;
  const Range west{r.i0, ri.i0, r.j0, r.j1};
  const Range east{ri.i1, r.i1, r.j0, r.j1};
  const Range south{ri.i0, ri.i1, r.j0, ri.j0};
  const Range north{ri.i0, ri.i1, ri.j1, r.j1};
  for (const Range& slab : {west, east, south, north}) {
    if (!empty(slab)) out[static_cast<std::size_t>(n++)] = slab;
  }
  return n;
}

double hydrostatic(const ModelConfig& cfg, const TileGrid& grid,
                   const Array3D<double>& theta, const Array3D<double>& salt,
                   Array3D<double>& phi, const Range& r) {
  const int nz = cfg.nz;
  double flops = 0;
  for (int i = r.i0; i < r.i1; ++i) {
    for (int j = r.j0; j < r.j1; ++j) {
      double p = 0.0;        // phi at the current cell center
      double b_above = 0.0;  // buoyancy of the cell above
      for (int k = 0; k < nz; ++k) {
        if (grid.hFacC(static_cast<std::size_t>(i), static_cast<std::size_t>(j),
                       static_cast<std::size_t>(k)) <= 0) {
          at(phi, i, j, k) = p;  // keep land columns finite
          continue;
        }
        const double b = buoyancy(cfg, at(theta, i, j, k), at(salt, i, j, k));
        // d(phi)/d(depth) = -b; integrate center to center.
        if (k == 0) {
          p = -b * 0.5 * grid.dzf[0];
        } else {
          p -= 0.5 * (b_above * grid.dzf[static_cast<std::size_t>(k - 1)] +
                      b * grid.dzf[static_cast<std::size_t>(k)]);
        }
        at(phi, i, j, k) = p;
        b_above = b;
        flops += kEosFlops + 5.0;
      }
    }
  }
  return flops;
}

double momentum_tendencies(const ModelConfig& cfg, const TileGrid& grid,
                           const Array3D<double>& u, const Array3D<double>& v,
                           const Array3D<double>& w,
                           const Array3D<double>& phi, Array3D<double>& gu,
                           Array3D<double>& gv, double visc_v,
                           const Range& r) {
  const int nz = cfg.nz;
  const double dy = grid.dyC;
  double flops = 0;

  for (int i = r.i0; i < r.i1; ++i) {
    for (int j = r.j0; j < r.j1; ++j) {
      const double dx = m1(grid.dxC, j);
      const double dxs = m1(grid.dxS, j);
      const double f_u = m1(grid.fC, j);
      const double f_v = 0.5 * (m1(grid.fC, j - 1) + m1(grid.fC, j));
      for (int k = 0; k < nz; ++k) {
        const double dz = grid.dzf[static_cast<std::size_t>(k)];

        // ---- Gu at the u point (west face of cell (i,j)) -------------
        if (at(grid.hFacW, i, j, k) > 0) {
          const double uc = at(u, i, j, k);
          const double vbar = 0.25 * (at(v, i - 1, j, k) + at(v, i, j, k) +
                                      at(v, i - 1, j + 1, k) +
                                      at(v, i, j + 1, k));
          const double dudx = (at(u, i + 1, j, k) - at(u, i - 1, j, k)) /
                              (2.0 * dx);
          const double dudy = (at(u, i, j + 1, k) - at(u, i, j - 1, k)) /
                              (2.0 * dy);
          // Vertical advection: w is the downward velocity at cell tops.
          double vert = 0.0;
          if (k > 0) {
            const double wt = 0.5 * (at(w, i - 1, j, k) + at(w, i, j, k));
            vert += 0.5 * wt * (at(u, i, j, k - 1) - uc) /
                    (grid.zC[static_cast<std::size_t>(k)] -
                     grid.zC[static_cast<std::size_t>(k - 1)]) * -1.0;
          }
          if (k + 1 < nz && at(grid.hFacW, i, j, k + 1) > 0) {
            const double wb =
                0.5 * (at(w, i - 1, j, k + 1) + at(w, i, j, k + 1));
            vert += 0.5 * wb * (uc - at(u, i, j, k + 1)) /
                    (grid.zC[static_cast<std::size_t>(k + 1)] -
                     grid.zC[static_cast<std::size_t>(k)]) * -1.0;
          }
          const double adv = uc * dudx + vbar * dudy + vert;
          const double dpdx = (at(phi, i, j, k) - at(phi, i - 1, j, k)) / dx;
          const double visc_h =
              cfg.visc_h *
              ((at(u, i + 1, j, k) - 2.0 * uc + at(u, i - 1, j, k)) / (dx * dx) +
               (at(u, i, j + 1, k) - 2.0 * uc + at(u, i, j - 1, k)) / (dy * dy));
          double visc_v_term = 0.0;
          if (k > 0) {
            visc_v_term += visc_v * (at(u, i, j, k - 1) - uc) / (dz * dz);
          }
          if (k + 1 < nz && at(grid.hFacW, i, j, k + 1) > 0) {
            visc_v_term += visc_v * (at(u, i, j, k + 1) - uc) / (dz * dz);
          }
          at(gu, i, j, k) = -adv + f_u * vbar - dpdx + visc_h + visc_v_term;
          flops += 44.0;
        } else {
          at(gu, i, j, k) = 0.0;
        }

        // ---- Gv at the v point (south face of cell (i,j)) ------------
        if (at(grid.hFacS, i, j, k) > 0) {
          const double vc = at(v, i, j, k);
          const double ubar = 0.25 * (at(u, i, j - 1, k) + at(u, i + 1, j - 1, k) +
                                      at(u, i, j, k) + at(u, i + 1, j, k));
          const double dvdx =
              (at(v, i + 1, j, k) - at(v, i - 1, j, k)) / (2.0 * dxs);
          const double dvdy =
              (at(v, i, j + 1, k) - at(v, i, j - 1, k)) / (2.0 * dy);
          double vert = 0.0;
          if (k > 0) {
            const double wt = 0.5 * (at(w, i, j - 1, k) + at(w, i, j, k));
            vert += 0.5 * wt * (at(v, i, j, k - 1) - vc) /
                    (grid.zC[static_cast<std::size_t>(k)] -
                     grid.zC[static_cast<std::size_t>(k - 1)]) * -1.0;
          }
          if (k + 1 < nz && at(grid.hFacS, i, j, k + 1) > 0) {
            const double wb = 0.5 * (at(w, i, j - 1, k + 1) + at(w, i, j, k + 1));
            vert += 0.5 * wb * (vc - at(v, i, j, k + 1)) /
                    (grid.zC[static_cast<std::size_t>(k + 1)] -
                     grid.zC[static_cast<std::size_t>(k)]) * -1.0;
          }
          const double adv = ubar * dvdx + vc * dvdy + vert;
          const double dpdy = (at(phi, i, j, k) - at(phi, i, j - 1, k)) / dy;
          const double visc_h =
              cfg.visc_h *
              ((at(v, i + 1, j, k) - 2.0 * vc + at(v, i - 1, j, k)) /
                   (dxs * dxs) +
               (at(v, i, j + 1, k) - 2.0 * vc + at(v, i, j - 1, k)) / (dy * dy));
          double visc_v_term = 0.0;
          if (k > 0) {
            visc_v_term += visc_v * (at(v, i, j, k - 1) - vc) / (dz * dz);
          }
          if (k + 1 < nz && at(grid.hFacS, i, j, k + 1) > 0) {
            visc_v_term += visc_v * (at(v, i, j, k + 1) - vc) / (dz * dz);
          }
          at(gv, i, j, k) = -adv - f_v * ubar - dpdy + visc_h + visc_v_term;
          flops += 44.0;
        } else {
          at(gv, i, j, k) = 0.0;
        }
      }
    }
  }
  return flops;
}

namespace {
// 3rd-order direct space-time face value (MITgcm's DST-3 scheme):
// upwind-biased, with the Courant number folded into the weights.  The
// slope differences are masked so the stencil degrades gracefully to
// first order beside land.
inline double dst3_face_value(double vel, double cfl, double t_m2,
                              double t_m1, double t_0, double t_p1,
                              bool have_m2, bool have_p1) {
  const double c = std::abs(cfl);
  const double d0 = (2.0 - c) * (1.0 - c) / 6.0;
  const double d1 = (1.0 - c * c) / 6.0;
  const double rj = t_0 - t_m1;
  if (vel >= 0.0) {
    const double rjm = have_m2 ? (t_m1 - t_m2) : 0.0;
    return t_m1 + d0 * rj + d1 * rjm;
  }
  const double rjp = have_p1 ? (t_p1 - t_0) : 0.0;
  return t_0 - (d0 * rj + d1 * rjp);
}

}  // namespace

double tracer_tendency(const ModelConfig& cfg, const TileGrid& grid,
                       const Array3D<double>& u, const Array3D<double>& v,
                       const Array3D<double>& w, const Array3D<double>& tr,
                       Array3D<double>& gtr, double kappa_h, double kappa_v,
                       const Range& r) {
  const int nz = cfg.nz;
  const bool dst3 = cfg.advection == ModelConfig::Advection::kDst3;
  [[maybe_unused]] const int reach = dst3 ? 2 : 1;
  assert(inside(r, reach, reach, nz, u, v, tr, grid.hFacC, grid.hFacW,
                grid.hFacS) &&
         inside(r, 0, 0, nz, w, gtr));
  const double dt = cfg.dt;
  const double* dzf = grid.dzf.data();
  const double* zc = grid.zC.data();
  // Flux (advection + diffusion) through the faces between columns
  // (i-di, j-dj) and (i, j) of face length `len`, centers `dist` apart.
  // Only DST-3 addresses the columns one further out on each side.
  const auto fluxes = [&](const Array3D<double>& open,
                          const Array3D<double>& vel, int i, int j, int di,
                          int dj, double len, double dist, double* out) {
    const double* op = col(open, i, j);
    const double* ve = col(vel, i, j);
    const double* t_m1 = col(tr, i - di, j - dj);
    const double* t_0 = col(tr, i, j);
    const double* t_m2 = dst3 ? col(tr, i - 2 * di, j - 2 * dj) : nullptr;
    const double* t_p1 = dst3 ? col(tr, i + di, j + dj) : nullptr;
    const double* h_m2 =
        dst3 ? col(grid.hFacC, i - 2 * di, j - 2 * dj) : nullptr;
    const double* h_p1 = dst3 ? col(grid.hFacC, i + di, j + dj) : nullptr;
    for (int k = 0; k < nz; ++k) {
      if (op[k] <= 0) {
        out[k] = 0.0;
        continue;
      }
      const double area = op[k] * len * dzf[k];
      double face;
      if (dst3) {
        const double cfl = ve[k] * dt / dist;
        face = dst3_face_value(ve[k], cfl, t_m2[k], t_m1[k], t_0[k], t_p1[k],
                               h_m2[k] > 0, h_p1[k] > 0);
      } else {
        face = 0.5 * (t_m1[k] + t_0[k]);
      }
      const double adv = ve[k] * area * face;
      const double diff = -kappa_h * area * (t_0[k] - t_m1[k]) / dist;
      out[k] = adv + diff;
    }
  };
  // Downward fluxes through the top of each level: none through the
  // surface or the bottom (vt[0] = vt[nz] = 0).
  std::vector<double> vert(static_cast<std::size_t>(nz) + 1, 0.0);
  double* vt = vert.data();
  long cells = 0;
  face_sweep(
      r, nz,
      [&](int i, int j, double* out) {
        fluxes(grid.hFacW, u, i, j, 1, 0, grid.dyC, m1(grid.dxC, j), out);
      },
      [&](int i, int j, double* out) {
        fluxes(grid.hFacS, v, i, j, 0, 1, m1(grid.dxS, j), grid.dyC, out);
      },
      [&](int i, int j, const double* fw, const double* fe, const double* fs,
          const double* fn) {
        const double* hf = col(grid.hFacC, i, j);
        const double* wc = col(w, i, j);
        const double* t = col(tr, i, j);
        double* g = col(gtr, i, j);
        const double area = m1(grid.rAc, j);
        for (int k = 1; k < nz; ++k) {
          vt[k] = 0.0;
          if (hf[k] <= 0 || hf[k - 1] <= 0) continue;
          const double adv = wc[k] * area * 0.5 * (t[k - 1] + t[k]);
          const double dzc = zc[k] - zc[k - 1];
          // Downward diffusive flux: F = -kv * d(tr)/d(depth) * area.
          const double diff = -kappa_v * area * (t[k] - t[k - 1]) / dzc;
          vt[k] = adv + diff;
        }
        for (int k = 0; k < nz; ++k) {
          if (hf[k] <= 0) {
            g[k] = 0.0;
            continue;
          }
          const double vol = area * dzf[k] * hf[k];
          g[k] = -((fe[k] - fw[k]) + (fn[k] - fs[k]) + (vt[k + 1] - vt[k])) /
                 vol;
          ++cells;
        }
      });
  return static_cast<double>(cells) * (dst3 ? 102.0 : 54.0);
}

namespace {
// One sweep of the masked Laplacian over r: acc = sum over the four faces
// of w_f (f_nb - f_c), w_f = min(m_c, m_nb) len dz / dist, then
// store(out_k, acc, vol) per wet cell, and out_k = 0 per dry one when
// `zero_dry`.  A face term is computed once, as the east (north) term of
// the cell on its low side; the cell across subtracts it, which equals
// adding its own west (south) term but for the sign of a zero, and acc,
// which starts at +0.0, is never -0.0.  Returns the number of wet cells.
template <typename Store>
long laplacian_sweep(const ModelConfig& cfg, const TileGrid& grid,
                     const Array3D<double>& f, const Array3D<double>& mask,
                     Array3D<double>& out, const Range& r, bool zero_dry,
                     Store store) {
  const int nz = cfg.nz;
  const double* dzf = grid.dzf.data();
  // Terms of the faces between cells (i-di, j-dj) and (i, j).
  const auto terms = [&](int i, int j, int di, int dj, double len,
                         double dist, double* t) {
    const double* fa = col(f, i - di, j - dj);
    const double* fb = col(f, i, j);
    const double* ma = col(mask, i - di, j - dj);
    const double* mb = col(mask, i, j);
    for (int k = 0; k < nz; ++k) {
      t[k] = std::min(ma[k], mb[k]) * len * dzf[k] / dist * (fb[k] - fa[k]);
    }
  };
  long wet = 0;
  face_sweep(
      r, nz,
      [&](int i, int j, double* t) {
        terms(i, j, 1, 0, grid.dyC, m1(grid.dxC, j), t);
      },
      [&](int i, int j, double* t) {
        terms(i, j, 0, 1, m1(grid.dxS, j), grid.dyC, t);
      },
      [&](int i, int j, const double* tw, const double* te, const double* ts,
          const double* tn) {
        const double* mc = col(mask, i, j);
        double* o = col(out, i, j);
        const double area = m1(grid.rAc, j);
        for (int k = 0; k < nz; ++k) {
          if (mc[k] > 0) {
            double acc = 0.0;
            acc -= tw[k];
            acc += te[k];
            acc -= ts[k];
            acc += tn[k];
            store(o[k], acc, area * dzf[k] * mc[k]);
            ++wet;
          } else if (zero_dry) {
            o[k] = 0.0;
          }
        }
      });
  return wet;
}
}  // namespace

double masked_laplacian(const ModelConfig& cfg, const TileGrid& grid,
                        const Array3D<double>& f, const Array3D<double>& mask,
                        Array3D<double>& out, const Range& r) {
  assert(inside(r, 1, 1, cfg.nz, f, mask) && inside(r, 0, 0, cfg.nz, out));
  const long wet = laplacian_sweep(
      cfg, grid, f, mask, out, r, true,
      [](double& o, double acc, double vol) { o = acc / vol; });
  return 26.0 * static_cast<double>(wet);
}

double biharmonic_tendency(const ModelConfig& cfg, const TileGrid& grid,
                           const Array3D<double>& f,
                           const Array3D<double>& mask,
                           Array3D<double>& scratch, Array3D<double>& g,
                           double a4, const Range& r) {
  if (a4 <= 0) return 0.0;
  // First pass one ring wider, so the second pass's stencil is covered.
  const double flops =
      masked_laplacian(cfg, grid, f, mask, scratch, widen(r, 1));
  return flops + biharmonic_second_pass(cfg, grid, scratch, mask, g, a4, r);
}

double biharmonic_second_pass(const ModelConfig& cfg, const TileGrid& grid,
                              const Array3D<double>& lap,
                              const Array3D<double>& mask,
                              Array3D<double>& g, double a4, const Range& r) {
  assert(inside(r, 1, 1, cfg.nz, lap) && inside(r, 0, 0, cfg.nz, g));
  const long wet = laplacian_sweep(
      cfg, grid, lap, mask, g, r, false,
      [a4](double& o, double acc, double vol) { o -= a4 * acc / vol; });
  return 28.0 * static_cast<double>(wet);
}

double ab2_update(const ModelConfig& cfg, const Array3D<double>& mask,
                  Array3D<double>& f, const Array3D<double>& g,
                  const Array3D<double>& g_nm1, bool first_step,
                  const Range& r) {
  const double c1 = first_step ? 1.0 : 1.5 + cfg.ab_eps;
  const double c0 = first_step ? 0.0 : 0.5 + cfg.ab_eps;
  const double dt = cfg.dt;
  const int nz = static_cast<int>(f.nz());
  assert(inside(r, 0, 0, nz, mask, f, g, g_nm1));
  long flops = 0;
  for (int i = r.i0; i < r.i1; ++i) {
    for (int j = r.j0; j < r.j1; ++j) {
      const double* m = col(mask, i, j);
      const double* gn = col(g, i, j);
      const double* go = col(g_nm1, i, j);
      double* fc = col(f, i, j);
      for (int k = 0; k < nz; ++k) {
        if (m[k] <= 0) continue;
        fc[k] += dt * (c1 * gn[k] - c0 * go[k]);
        flops += 5;
      }
    }
  }
  return static_cast<double>(flops);
}

namespace {
// A w point (top face of cell k) is open iff both adjacent cells are wet
// (and k > 0: the surface face belongs to the free surface / rigid lid).
inline bool w_open(const TileGrid& grid, int i, int j, int k) {
  return k > 0 &&
         at(grid.hFacC, i, j, k) > 0 && at(grid.hFacC, i, j, k - 1) > 0;
}
}  // namespace

double w_tendencies(const ModelConfig& cfg, const TileGrid& grid,
                    const Array3D<double>& u, const Array3D<double>& v,
                    const Array3D<double>& w, Array3D<double>& gw,
                    double visc_v, const Range& r) {
  const int nz = cfg.nz;
  const double dy = grid.dyC;
  double flops = 0;
  for (int i = r.i0; i < r.i1; ++i) {
    for (int j = r.j0; j < r.j1; ++j) {
      const double dx = m1(grid.dxC, j);
      for (int k = 0; k < nz; ++k) {
        if (!w_open(grid, i, j, k)) {
          at(gw, i, j, k) = 0.0;
          continue;
        }
        const double wc = at(w, i, j, k);
        // Horizontal velocity averaged to the w point (4 u's, 4 v's over
        // the two adjacent levels).
        const double uc = 0.25 * (at(u, i, j, k - 1) + at(u, i + 1, j, k - 1) +
                                  at(u, i, j, k) + at(u, i + 1, j, k));
        const double vc = 0.25 * (at(v, i, j, k - 1) + at(v, i, j + 1, k - 1) +
                                  at(v, i, j, k) + at(v, i, j + 1, k));
        const double dwdx = (at(w, i + 1, j, k) - at(w, i - 1, j, k)) /
                            (2.0 * dx);
        const double dwdy = (at(w, i, j + 1, k) - at(w, i, j - 1, k)) /
                            (2.0 * dy);
        // Vertical self-advection across the adjacent faces.
        double dwdz = 0.0;
        if (w_open(grid, i, j, k - 1) || w_open(grid, i, j, k + 1 < nz ? k + 1 : k)) {
          const double w_up = (k - 1 > 0) ? at(w, i, j, k - 1) : 0.0;
          const double w_dn = (k + 1 < nz) ? at(w, i, j, k + 1) : 0.0;
          const double dzc = grid.dzf[static_cast<std::size_t>(k - 1)] +
                             grid.dzf[static_cast<std::size_t>(k)];
          dwdz = (w_dn - w_up) / dzc;
        }
        const double adv = uc * dwdx + vc * dwdy + wc * dwdz;
        const double visc_h =
            cfg.visc_h *
            ((at(w, i + 1, j, k) - 2.0 * wc + at(w, i - 1, j, k)) / (dx * dx) +
             (at(w, i, j + 1, k) - 2.0 * wc + at(w, i, j - 1, k)) / (dy * dy));
        double visc_vt = 0.0;
        const double dzk = grid.dzf[static_cast<std::size_t>(k)];
        if (w_open(grid, i, j, k - 1)) {
          visc_vt += visc_v * (at(w, i, j, k - 1) - wc) / (dzk * dzk);
        }
        if (k + 1 < nz && w_open(grid, i, j, k + 1)) {
          visc_vt += visc_v * (at(w, i, j, k + 1) - wc) / (dzk * dzk);
        }
        at(gw, i, j, k) = -adv + visc_h + visc_vt;
        flops += 38.0;
      }
    }
  }
  return flops;
}

double nh_rhs(const ModelConfig& cfg, const TileGrid& grid,
              const Array3D<double>& u, const Array3D<double>& v,
              const Array3D<double>& w, Array3D<double>& rhs,
              const Range& r) {
  const int nz = cfg.nz;
  double flops = 0;
  for (int i = r.i0; i < r.i1; ++i) {
    for (int j = r.j0; j < r.j1; ++j) {
      const double area = m1(grid.rAc, j);
      for (int k = 0; k < nz; ++k) {
        if (at(grid.hFacC, i, j, k) <= 0) {
          at(rhs, i, j, k) = 0.0;
          continue;
        }
        const double hdiv = column_flux_divergence(grid, u, v, i, j, k);
        const double wtop = w_open(grid, i, j, k) ? at(w, i, j, k) * area : 0.0;
        const double wbot = (k + 1 < nz && w_open(grid, i, j, k + 1))
                                ? at(w, i, j, k + 1) * area
                                : 0.0;
        at(rhs, i, j, k) = (hdiv + wbot - wtop) / cfg.dt;
        flops += 14.0;
      }
    }
  }
  return flops;
}

double correct_velocity_nh(const ModelConfig& cfg, const TileGrid& grid,
                           const Array3D<double>& phi_nh, Array3D<double>& u,
                           Array3D<double>& v, Array3D<double>& w,
                           const Range& r) {
  const int nz = cfg.nz;
  const double dt = cfg.dt;
  double flops = 0;
  for (int i = r.i0; i < r.i1; ++i) {
    for (int j = r.j0; j < r.j1; ++j) {
      const double dx = m1(grid.dxC, j);
      for (int k = 0; k < nz; ++k) {
        if (at(grid.hFacW, i, j, k) > 0) {
          at(u, i, j, k) -=
              dt * (at(phi_nh, i, j, k) - at(phi_nh, i - 1, j, k)) / dx;
          flops += 4.0;
        }
        if (at(grid.hFacS, i, j, k) > 0) {
          at(v, i, j, k) -=
              dt * (at(phi_nh, i, j, k) - at(phi_nh, i, j - 1, k)) / grid.dyC;
          flops += 4.0;
        }
        if (w_open(grid, i, j, k)) {
          const double dzc = grid.zC[static_cast<std::size_t>(k)] -
                             grid.zC[static_cast<std::size_t>(k - 1)];
          at(w, i, j, k) -=
              dt * (at(phi_nh, i, j, k) - at(phi_nh, i, j, k - 1)) / dzc;
          flops += 4.0;
        }
      }
    }
  }
  return flops;
}

namespace {
// Calls column(i, j, div) for each column of r, where div[k] equals
// column_flux_divergence(grid, u, v, i, j, k) on every level, each face
// volume flux computed once.
template <typename Column>
void divergence_sweep(const ModelConfig& cfg, const TileGrid& grid,
                      const Array3D<double>& u, const Array3D<double>& v,
                      const Range& r, Column column) {
  const int nz = cfg.nz;
  const double* dzf = grid.dzf.data();
  std::vector<double> div(static_cast<std::size_t>(nz));
  const auto fluxes = [&](const Array3D<double>& vel,
                          const Array3D<double>& open, double len, int i,
                          int j, double* out) {
    const double* ve = col(vel, i, j);
    const double* op = col(open, i, j);
    for (int k = 0; k < nz; ++k) {
      out[k] = ve[k] * op[k] * len * dzf[k];
    }
  };
  face_sweep(
      r, nz,
      [&](int i, int j, double* out) {
        fluxes(u, grid.hFacW, grid.dyC, i, j, out);
      },
      [&](int i, int j, double* out) {
        fluxes(v, grid.hFacS, m1(grid.dxS, j), i, j, out);
      },
      [&](int i, int j, const double* uw, const double* ue, const double* vs,
          const double* vn) {
        for (int k = 0; k < nz; ++k) {
          div[static_cast<std::size_t>(k)] = (ue[k] - uw[k]) + (vn[k] - vs[k]);
        }
        column(i, j, div.data());
      });
}
}  // namespace

double column_flux_divergence(const TileGrid& grid, const Array3D<double>& u,
                              const Array3D<double>& v, int i, int j, int k) {
  const double dz = grid.dzf[static_cast<std::size_t>(k)];
  const double uw = at(u, i, j, k) * at(grid.hFacW, i, j, k) * grid.dyC * dz;
  const double ue =
      at(u, i + 1, j, k) * at(grid.hFacW, i + 1, j, k) * grid.dyC * dz;
  const double vs =
      at(v, i, j, k) * at(grid.hFacS, i, j, k) * m1(grid.dxS, j) * dz;
  const double vn = at(v, i, j + 1, k) * at(grid.hFacS, i, j + 1, k) *
                    m1(grid.dxS, j + 1) * dz;
  return (ue - uw) + (vn - vs);
}

double diagnose_w(const ModelConfig& cfg, const TileGrid& grid,
                  const Array3D<double>& u, const Array3D<double>& v,
                  Array3D<double>& w, const Range& r) {
  const int nz = cfg.nz;
  assert(inside(r, 0, 1, nz, u, v, grid.hFacW, grid.hFacS) &&
         inside(r, 0, 0, nz, w, grid.hFacC));
  long cells = 0;
  divergence_sweep(cfg, grid, u, v, r, [&](int i, int j, const double* div) {
    const double* hf = col(grid.hFacC, i, j);
    double* wc = col(w, i, j);
    const double area = m1(grid.rAc, j);
    double wf = 0.0;  // downward volume flux at the face below level k
    for (int k = nz - 1; k >= 0; --k) {
      if (hf[k] <= 0) {
        wc[k] = 0.0;
        continue;
      }
      wf += div[k];
      wc[k] = wf / area;
      ++cells;
    }
  });
  return 12.0 * static_cast<double>(cells);
}

double ps_rhs(const ModelConfig& cfg, const TileGrid& grid,
              const Array3D<double>& u, const Array3D<double>& v,
              Array2D<double>& rhs, const Range& r) {
  const int nz = cfg.nz;
  const double dt = cfg.dt;
  assert(inside(r, 0, 1, nz, u, v, grid.hFacW, grid.hFacS) &&
         inside(r, 0, 0, nz, grid.hFacC));
  long flops = 0;
  divergence_sweep(cfg, grid, u, v, r, [&](int i, int j, const double* div) {
    const double* hf = col(grid.hFacC, i, j);
    double d = 0.0;
    for (int k = 0; k < nz; ++k) {
      if (hf[k] <= 0) continue;
      d += div[k];
      flops += 11;
    }
    at(rhs, i, j) = d / dt;
    flops += 1;
  });
  return static_cast<double>(flops);
}

double correct_velocity(const ModelConfig& cfg, const TileGrid& grid,
                        const Array2D<double>& ps, Array3D<double>& u,
                        Array3D<double>& v, const Range& r) {
  const int nz = cfg.nz;
  const double dt = cfg.dt;
  double flops = 0;
  for (int i = r.i0; i < r.i1; ++i) {
    for (int j = r.j0; j < r.j1; ++j) {
      const double dpdx = (at(ps, i, j) - at(ps, i - 1, j)) / m1(grid.dxC, j);
      const double dpdy = (at(ps, i, j) - at(ps, i, j - 1)) / grid.dyC;
      for (int k = 0; k < nz; ++k) {
        if (at(grid.hFacW, i, j, k) > 0) {
          at(u, i, j, k) -= dt * dpdx;
          flops += 2.0;
        }
        if (at(grid.hFacS, i, j, k) > 0) {
          at(v, i, j, k) -= dt * dpdy;
          flops += 2.0;
        }
      }
      flops += 6.0;
    }
  }
  return flops;
}

double implicit_vertical_diffusion(const ModelConfig& cfg,
                                   const TileGrid& grid, Array3D<double>& f,
                                   const Array3D<double>& mask, double kv,
                                   const Range& r) {
  if (kv <= 0) return 0.0;
  const int nz = cfg.nz;
  if (nz < 2) return 0.0;
  assert(inside(r, 0, 0, nz, f, mask) && f.nz() == mask.nz());
  if (empty(r)) return 0.0;
  const double dt = cfg.dt;
  const auto nzs = static_cast<std::size_t>(nz);
  const auto nj = static_cast<std::size_t>(r.j1 - r.j0);
  // Interface conductances g_k = kv / (zC_k - zC_{k-1}) between cells k-1
  // and k, one per level; a row uses g_k only where both cells are wet.
  // Row k: (hfac_k dz_k + dt(g_k + g_{k+1})) f_k - dt g_k f_{k-1}
  //        - dt g_{k+1} f_{k+1} = hfac_k dz_k f*_k   (flux form,
  // multiplied through by the open thickness -> symmetric & conservative).
  std::vector<double> gk(nzs + 1, 0.0);
  for (std::size_t k = 1; k < nzs; ++k) {
    gk[k] = kv / (grid.zC[k] - grid.zC[k - 1]);
  }
  // The Thomas solves of an i-slab's columns advance together, level by
  // level with j innermost, in level-major workspaces; each column carries
  // its last factor (then solution) and whether that level was wet.
  std::vector<double> cp(nzs * nj), rhs(nzs * nj), carry(nj);
  std::vector<int> open(nj);
  const std::size_t stride = f.nz();  // from column (i, j) to (i, j+1)
  long flops = 0;
  for (int i = r.i0; i < r.i1; ++i) {
    double* f0 = col(f, i, r.j0);
    const double* m0 = col(mask, i, r.j0);
    std::fill(carry.begin(), carry.end(), 0.0);
    std::fill(open.begin(), open.end(), 0);
    for (std::size_t k = 0; k < nzs; ++k) {
      const double dz = grid.dzf[k];
      double* cpk = cp.data() + k * nj;
      double* rk = rhs.data() + k * nj;
      for (std::size_t jj = 0; jj < nj; ++jj) {
        const double* m = m0 + jj * stride;
        const double hfac = m[k];
        if (hfac <= 0) {
          open[jj] = 0;
          continue;
        }
        const double vol = hfac * dz;
        double g_up = 0.0, g_dn = 0.0;
        if (k > 0 && m[k - 1] > 0) g_up = gk[k];
        if (k + 1 < nzs && m[k + 1] > 0) g_dn = gk[k + 1];
        const double a = open[jj] ? -dt * g_up : 0.0;
        const double b = vol + dt * (g_up + g_dn);
        const double c = -dt * g_dn;
        const double denom = b - a * carry[jj];
        cpk[jj] = c / denom;
        rk[jj] = (vol * f0[jj * stride + k] -
                  a * (open[jj] ? rhs[(k - 1) * nj + jj] : 0.0)) /
                 denom;
        carry[jj] = cpk[jj];
        open[jj] = 1;
        flops += 14;
      }
    }
    // Back substitution.
    std::fill(open.begin(), open.end(), 0);
    for (std::size_t k = nzs; k-- > 0;) {
      const double* cpk = cp.data() + k * nj;
      const double* rk = rhs.data() + k * nj;
      for (std::size_t jj = 0; jj < nj; ++jj) {
        if (m0[jj * stride + k] <= 0) {
          open[jj] = 0;
          continue;
        }
        double fk = rk[jj];
        if (open[jj]) {
          fk -= cpk[jj] * carry[jj];
          flops += 2;
        }
        f0[jj * stride + k] = fk;
        carry[jj] = fk;
        open[jj] = 1;
      }
    }
  }
  return static_cast<double>(flops);
}

void apply_velocity_masks(const TileGrid& grid, Array3D<double>& u,
                          Array3D<double>& v, const Range& r) {
  const int nz = static_cast<int>(u.nz());
  for (int i = r.i0; i < r.i1; ++i) {
    for (int j = r.j0; j < r.j1; ++j) {
      for (int k = 0; k < nz; ++k) {
        if (at(grid.hFacW, i, j, k) <= 0) at(u, i, j, k) = 0.0;
        if (at(grid.hFacS, i, j, k) <= 0) at(v, i, j, k) = 0.0;
      }
    }
  }
}

}  // namespace hyades::gcm::kernels
