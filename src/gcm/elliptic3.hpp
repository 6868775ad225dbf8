// The non-hydrostatic 3-D elliptic system (Section 3.1: outside the
// hydrostatic limit the model carries a non-hydrostatic pressure
// component found from a three-dimensional elliptic equation):
//
//     div3( grad3 phi_nh ) = div3(u*, v*, w*) / dt
//
// Discretely the 7-point operator couples each wet cell to its 4 lateral
// and 2 vertical neighbours with finite-volume face weights; as in the
// 2-D case the solver works with L3 = -A3 (SPD up to the constant).
//
// Preconditioner: exact vertical-column tridiagonal solves.  At climate
// aspect ratios the vertical coupling (rA/dzc, with dz ~ 100 m) exceeds
// the lateral coupling (dz*dy/dx, with dx ~ 10^5 m) by many orders of
// magnitude, so solving the columns exactly removes essentially all of
// the operator's stiffness.
#pragma once

#include "gcm/config.hpp"
#include "gcm/decomp.hpp"
#include "gcm/grid.hpp"
#include "support/array.hpp"

namespace hyades::gcm {

class EllipticOperator3 {
 public:
  EllipticOperator3(const ModelConfig& cfg, const Decomp& dec,
                    const TileGrid& grid);

  // out = L3 p over the tile interior; p needs a 1-cell lateral halo.
  // With `p_dot_out`, also stores <p, out> summed in (i, j, k) order, as
  // EllipticOperator::apply does.
  double apply(const Array3D<double>& p, Array3D<double>& out,
               double* p_dot_out = nullptr) const;

  // z = M^-1 r with M = the vertical tridiagonal part of L3 (plus the
  // full diagonal), solved per column.  SPD, tile-local.
  double precondition(const Array3D<double>& r, Array3D<double>& z) const;

  [[nodiscard]] bool is_wet(int i, int j, int k) const {
    return diag_(static_cast<std::size_t>(i), static_cast<std::size_t>(j),
                 static_cast<std::size_t>(k)) > 0;
  }
  [[nodiscard]] const Array3D<double>& diagonal() const { return diag_; }

 private:
  const ModelConfig& cfg_;
  const Decomp& dec_;
  const TileGrid& grid_;
  // Face weights: wW_(i,j,k) couples (i-1,j,k)-(i,j,k); wS_ couples in j;
  // wT_(i,j,k) couples (i,j,k-1)-(i,j,k) (the top face of cell k).
  Array3D<double> wW_, wS_, wT_, diag_;
  // Thomas factors of the column tridiagonal.
  Array3D<double> cp_, inv_;
};

}  // namespace hyades::gcm
