// The DS-phase elliptic system (eq. (3)):  solve
//
//     div_h( H grad_h ps ) = rhs
//
// on the 2-D lateral grid.  Discretely the operator rows are
//
//     A(p)_c = sum_faces w_f (p_nb - p_c),    w_f = H_f * len_f / dist_f
//
// which is symmetric negative semidefinite; the solver works with
// L = -A (SPD up to the constant null space) -- the "pre-conditioned
// conjugate-gradient iterative solver" of Section 4.
//
// Preconditioner: symmetrized line relaxation,
//     M^-1 = (Mx^-1 + My^-1) / 2,
// where Mx (My) is the tridiagonal part of L along each latitude row
// (longitude column), solved tile-locally (cross-tile couplings dropped
// from the off-diagonals but kept on the diagonal, so each factor stays
// SPD and so does their average).  The zonal lines cure the lat-lon
// grid's polar anisotropy (w_east/w_north ~ 30 at 80 degrees); the
// meridional lines pick up the depth contrasts of shelves and ridges.
// Together they keep the iteration count near the paper's Ni ~ 60.
// An operator built with ModelConfig::cg_jacobi preconditions with plain
// Jacobi scaling, z = r / diag(L), instead (the solver ablation).
#pragma once

#include "gcm/config.hpp"
#include "gcm/decomp.hpp"
#include "gcm/grid.hpp"
#include "support/array.hpp"

namespace hyades::gcm {

class EllipticOperator {
 public:
  EllipticOperator(const ModelConfig& cfg, const Decomp& dec,
                   const TileGrid& grid);

  // out = L p over the tile interior; p must have a valid 1-cell halo.
  // Returns the flops performed.  With `p_dot_out`, also stores <p, out>
  // over the interior, summed in (i, j) order as each out cell is written
  // (a land cell adds p * 0.0), bit for bit a separate dot's sum.
  double apply(const Array2D<double>& p, Array2D<double>& out,
               double* p_dot_out = nullptr) const;

  // z = M^-1 r over the interior (z = 0 on land), where M is the
  // symmetrized line relaxation above, or diag(L) under cg_jacobi.
  // Returns flops.
  double precondition(const Array2D<double>& r, Array2D<double>& z) const;

  // Face weight accessors (exposed for symmetry tests).
  [[nodiscard]] const Array2D<double>& west_weight() const { return wW_; }
  [[nodiscard]] const Array2D<double>& south_weight() const { return wS_; }
  [[nodiscard]] const Array2D<double>& diagonal() const { return diag_; }
  [[nodiscard]] bool is_wet(int i, int j) const {
    return diag_(static_cast<std::size_t>(i), static_cast<std::size_t>(j)) > 0;
  }

  [[nodiscard]] const Decomp& decomp() const { return dec_; }

 private:
  void factor_lines();

  const Decomp& dec_;
  bool jacobi_;  // cfg.cg_jacobi: Jacobi instead of line relaxation
  // Weights on the tile's extended index space: wW_(i,j) couples cells
  // (i-1,j)-(i,j); wS_(i,j) couples (i,j-1)-(i,j).
  Array2D<double> wW_, wS_, diag_;
  // Thomas-algorithm factors per interior cell: cp_ = normalized
  // super-diagonal, inv_ = 1/(b - a*cp_prev); x-direction and
  // y-direction sets.
  Array2D<double> cp_, inv_;
  Array2D<double> cpy_, invy_;
  // One precondition's flops, fixed by the wet mask.
  long line_flops_ = 0;
  // The meridional lines a precondition pass advances together, so that
  // their cells stay in L1 from one j to the next.
  static constexpr int kLineBlock = 16;
  // precondition's scratch: Thomas values and per-line carries.
  mutable std::vector<double> ybuf_, carry_;
};

}  // namespace hyades::gcm
