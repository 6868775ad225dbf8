// Preconditioned conjugate gradients for both pressure solves: the DS
// surface pressure (2-D, EllipticOperator) and the non-hydrostatic
// pressure (3-D, EllipticOperator3).  One algorithm with the paper's
// per-iteration communication structure: two halo-1 exchanges (the
// search direction d and the preconditioned residual z) and two global
// sums (Section 4: "the iterative solver requires an exchange to be
// applied to two fields at every solver iteration ... Two global sum
// operations are required at every solver iteration").  The 3-D solve
// exchanges level-deep strips, which is exactly why the paper's climate
// runs stay in the hydrostatic limit (see bench_ablation_nonhydro).
//
// The preconditioner is the operator's own: symmetrized line relaxation
// by default or Jacobi (ModelConfig::cg_jacobi) in 2-D, vertical column
// solves in 3-D.
//
// All dot products are reduced through Comm::global_sum, so every rank
// sees bitwise-identical convergence decisions.
#pragma once

#include <stdexcept>
#include <string>

#include "comm/comm.hpp"
#include "gcm/elliptic.hpp"
#include "gcm/elliptic3.hpp"

namespace hyades::gcm {

// Thrown when a residual norm turns non-finite mid-solve: NaNs in the
// state (e.g. garbled data that somehow slipped past the CRC/reliability
// layer) or a genuinely diverging solve.  Aborting with a diagnostic
// beats silently iterating on garbage until max_iter.  Collective-safe:
// the residual comes from a global sum, so every rank throws together.
struct SolverDivergence : std::runtime_error {
  SolverDivergence(const char* solver, int at_iteration, double rr)
      : std::runtime_error(std::string(solver) +
                           ": non-finite residual at iteration " +
                           std::to_string(at_iteration) + " (<r,r> = " +
                           std::to_string(rr) + ")"),
        iteration(at_iteration),
        residual_sq(rr) {}
  int iteration;
  double residual_sq;
};

struct CgResult {
  int iterations = 0;
  double residual = 0.0;       // sqrt(<r, r>) at exit
  double rhs_norm = 0.0;       // ||b||_2
  bool converged = false;
  double flops = 0.0;          // local flops spent in the solve
};

// Solves L p = b in-place (p holds the initial guess, typically the
// previous step's pressure) until ||r||_2 <= tol * ||b||_2.  b must
// satisfy the compatibility condition (its global sum is ~0); the
// constant null-space component of p is left untouched by CG.
CgResult cg_solve(comm::Comm& comm, const Decomp& dec,
                  const EllipticOperator& op, const Array2D<double>& b,
                  Array2D<double>& p, double tol, int max_iter);
CgResult cg_solve(comm::Comm& comm, const Decomp& dec,
                  const EllipticOperator3& op, const Array3D<double>& b,
                  Array3D<double>& p, double tol, int max_iter);

}  // namespace hyades::gcm
