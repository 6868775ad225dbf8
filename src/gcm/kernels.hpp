// Finite-volume kernels for the PS (prognostic) and DS (diagnostic)
// phases of Figure 6.  Every kernel operates on a rectangular local-index
// window -- the PS kernels run on windows *wider than the interior*
// (overcomputation, Section 4), which is what confines PS communication
// to a single halo exchange per field per time step.
//
// Each kernel returns the number of floating-point operations it
// performed (counted per wet point from the operation's arithmetic), so
// the time-stepper can charge virtual compute time and measure the
// paper's Nps / Nds parameters (Figure 11).
#pragma once

#include <array>
#include <vector>

#include "gcm/config.hpp"
#include "gcm/grid.hpp"
#include "gcm/state.hpp"
#include "support/host_pool.hpp"

namespace hyades::gcm::kernels {

struct Range {
  int i0, i1, j0, j1;  // local index window, half-open
};

[[nodiscard]] inline bool empty(const Range& r) {
  return r.i0 >= r.i1 || r.j0 >= r.j1;
}

// Interior extended by `e` halo cells on every side (e <= dec.halo).
Range extended(const Decomp& dec, int e);

// r widened by `e` cells on every side.
[[nodiscard]] inline Range widen(const Range& r, int e) {
  return Range{r.i0 - e, r.i1 + e, r.j0 - e, r.j1 + e};
}

// Chunk c of the n contiguous i-chunks that partition r's columns.
[[nodiscard]] inline Range i_chunk(const Range& r, int c, int n) {
  const int w = r.i1 - r.i0;
  return Range{r.i0 + w * c / n, r.i0 + w * (c + 1) / n, r.j0, r.j1};
}

// Runs kernel(chunk) on the i-chunks of r as one region of `pool`, one
// chunk per pool thread, and returns the chunks' flops summed in chunk
// order.  A window narrower than two columns per chunk runs as one call.
// When the kernel writes only its window's columns and reads nothing
// another chunk writes, the result is kernel(r)'s bit for bit, and so is
// the flop count: each chunk's is an integer far below 2^53 (DESIGN.md
// "Host kernels").
template <typename Kernel>
double split_i(support::HostPool& pool, const Range& r, const Kernel& kernel) {
  const int n = pool.threads();
  if (n < 2 || r.i1 - r.i0 < 2 * n) return kernel(r);
  std::vector<double> flops(static_cast<std::size_t>(n));
  pool.run(flops.size(), [&](std::size_t c) {
    flops[c] = kernel(i_chunk(r, static_cast<int>(c), n));
  });
  double sum = 0;
  for (const double f : flops) sum += f;
  return sum;
}

// Overlap split of a PS window (ModelConfig::overlap_comm): the largest
// sub-window of `r` that can be computed while a width-`halo` exchange
// is still in flight.  Every PS stencil reaches at most `halo` cells, so
// cells at least 2*halo from a neighbor-facing tile edge read only
// tile-owned data, which the exchange never modifies.  Sides without a
// neighbor are not shrunk (nothing arrives there).  `margin` widens the
// band (the hydrostatic pass runs one cell wider because the momentum
// kernel reads phi one cell beyond its own window; hydrostatics is
// column-local, so the widened cells still read only owned data).
Range interior(const Decomp& dec, const Range& r, int margin = 0);

// The complement r \ ri as up to four disjoint rectangles (ri must be
// the `interior` of r, or empty).  Returns the number written to `out`.
int rim(const Range& r, const Range& ri, std::array<Range, 4>& out);

// Buoyancy from the EOS and hydrostatic integration of phi (eq. between
// (1) and (3): p_hy from b).  Fills state.phi over the window.
double hydrostatic(const ModelConfig& cfg, const TileGrid& grid,
                   const Array3D<double>& theta, const Array3D<double>& salt,
                   Array3D<double>& phi, const Range& r);

// Momentum tendencies Gu, Gv: advection, Coriolis, hydrostatic pressure
// gradient, horizontal friction, and explicit vertical friction with
// coefficient `visc_v` (pass 0 when vertical mixing is implicit).
double momentum_tendencies(const ModelConfig& cfg, const TileGrid& grid,
                           const Array3D<double>& u, const Array3D<double>& v,
                           const Array3D<double>& w,
                           const Array3D<double>& phi, Array3D<double>& gu,
                           Array3D<double>& gv, double visc_v,
                           const Range& r);

// Flux-form tracer tendency (advection + diffusion) for one tracer.
double tracer_tendency(const ModelConfig& cfg, const TileGrid& grid,
                       const Array3D<double>& u, const Array3D<double>& v,
                       const Array3D<double>& w, const Array3D<double>& tr,
                       Array3D<double>& gtr, double kappa_h, double kappa_v,
                       const Range& r);

// Conservative masked horizontal Laplacian: out = (1/V) sum_faces
// w_f (f_nb - f_c).  `mask` selects the point type (hFacC for tracers,
// hFacW/hFacS for velocities); face openness is min(mask_c, mask_nb).
// Needs f valid one cell beyond the window.
double masked_laplacian(const ModelConfig& cfg, const TileGrid& grid,
                        const Array3D<double>& f, const Array3D<double>& mask,
                        Array3D<double>& out, const Range& r);

// Biharmonic (del^4) horizontal mixing: g -= a4 * lap(lap(f)), built from
// two conservative Laplacian passes (so tracer totals are preserved to
// round-off).  `scratch` must be an extended-size work array; f must be
// valid two cells beyond the window.  The passes are
//   masked_laplacian(cfg, grid, f, mask, scratch, widen(r, 1))
//   biharmonic_second_pass(cfg, grid, scratch, mask, g, a4, r)
// which a caller may also run one after the other itself.
double biharmonic_tendency(const ModelConfig& cfg, const TileGrid& grid,
                           const Array3D<double>& f,
                           const Array3D<double>& mask,
                           Array3D<double>& scratch, Array3D<double>& g,
                           double a4, const Range& r);

// g -= a4 * lap(lap) over r, where `lap` holds the first pass, the masked
// Laplacian of f over widen(r, 1).
double biharmonic_second_pass(const ModelConfig& cfg, const TileGrid& grid,
                              const Array3D<double>& lap,
                              const Array3D<double>& mask,
                              Array3D<double>& g, double a4, const Range& r);

// Adams-Bashforth-2 update: f += dt * ((1.5+eps) g - (0.5+eps) g_nm1),
// masked by `mask` (> 0 means active); plain forward Euler on the first
// step.
double ab2_update(const ModelConfig& cfg, const Array3D<double>& mask,
                  Array3D<double>& f, const Array3D<double>& g,
                  const Array3D<double>& g_nm1, bool first_step,
                  const Range& r);

// Non-hydrostatic w tendency (advection + friction) at interior w points
// (cell-top faces with wet cells on both sides; the buoyancy force is
// absorbed into the hydrostatic pressure, Section 3.1).
double w_tendencies(const ModelConfig& cfg, const TileGrid& grid,
                    const Array3D<double>& u, const Array3D<double>& v,
                    const Array3D<double>& w, Array3D<double>& gw,
                    double visc_v, const Range& r);

// Full 3-D divergence / dt per wet cell (rhs of the non-hydrostatic
// elliptic equation; columns sum to ~0 after the 2-D surface solve).
double nh_rhs(const ModelConfig& cfg, const TileGrid& grid,
              const Array3D<double>& u, const Array3D<double>& v,
              const Array3D<double>& w, Array3D<double>& rhs, const Range& r);

// Subtract the non-hydrostatic pressure gradient from (u, v, w).
double correct_velocity_nh(const ModelConfig& cfg, const TileGrid& grid,
                           const Array3D<double>& phi_nh, Array3D<double>& u,
                           Array3D<double>& v, Array3D<double>& w,
                           const Range& r);

// Diagnose the downward velocity w at cell tops from continuity,
// integrating from the bottom (w = 0 beneath the deepest wet cell).
double diagnose_w(const ModelConfig& cfg, const TileGrid& grid,
                  const Array3D<double>& u, const Array3D<double>& v,
                  Array3D<double>& w, const Range& r);

// DS right-hand side: depth-integrated volume-flux divergence / dt
// (the discrete form of eq. (3)'s source term).
double ps_rhs(const ModelConfig& cfg, const TileGrid& grid,
              const Array3D<double>& u, const Array3D<double>& v,
              Array2D<double>& rhs, const Range& r);

// Backward-Euler vertical diffusion: solves, per column,
//   (I - dt d/dz (kv d/dz)) f_new = f
// with no-flux top/bottom boundaries, in conservative flux form
// (column integrals of f * dz * hFac are preserved to round-off).
// Unconditionally stable, tile-local (no communication).
double implicit_vertical_diffusion(const ModelConfig& cfg,
                                   const TileGrid& grid, Array3D<double>& f,
                                   const Array3D<double>& mask, double kv,
                                   const Range& r);

// Subtract the surface-pressure gradient: u -= dt dps/dx, v -= dt dps/dy
// on open faces (the correction that enforces eq. (2)).
double correct_velocity(const ModelConfig& cfg, const TileGrid& grid,
                        const Array2D<double>& ps, Array3D<double>& u,
                        Array3D<double>& v, const Range& r);

// Zero velocities on closed faces (defensive; tendencies are already
// masked).
void apply_velocity_masks(const TileGrid& grid, Array3D<double>& u,
                          Array3D<double>& v, const Range& r);

// Depth-integrated horizontal volume-flux divergence of one column
// (shared by diagnose_w / ps_rhs; exposed for tests).
double column_flux_divergence(const TileGrid& grid, const Array3D<double>& u,
                              const Array3D<double>& v, int i, int j, int k);

}  // namespace hyades::gcm::kernels
