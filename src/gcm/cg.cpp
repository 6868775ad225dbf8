#include "gcm/cg.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

#include "cluster/trace.hpp"
#include "gcm/halo.hpp"

namespace hyades::gcm {

namespace {

// The tile interior of a solver field as one contiguous run of storage
// per i: the j strip in 2-D, the (j, k) columns in 3-D (k is fastest
// and has no halo).  Walking the runs in order visits the cells in
// (i, j[, k]) loop order, so the local partial sums are deterministic.
// Every solver field shares the tile's extents, so one offset addresses
// the same cell in all of them.
struct InteriorRuns {
  std::size_t first = 0;   // offset of the first interior cell
  std::size_t stride = 0;  // offset step from one i to the next
  std::size_t len = 0;     // interior cells per i
  std::size_t rows = 0;    // interior i count

  [[nodiscard]] double cells() const {
    return static_cast<double>(rows) * static_cast<double>(len);
  }
};

InteriorRuns interior_runs(const Decomp& dec, const Array2D<double>& f) {
  const auto h = static_cast<std::size_t>(dec.halo);
  return {h * f.ny() + h, f.ny(), static_cast<std::size_t>(dec.sny),
          static_cast<std::size_t>(dec.snx)};
}

InteriorRuns interior_runs(const Decomp& dec, const Array3D<double>& f) {
  const auto h = static_cast<std::size_t>(dec.halo);
  return {(h * f.ny() + h) * f.nz(), f.ny() * f.nz(),
          static_cast<std::size_t>(dec.sny) * f.nz(),
          static_cast<std::size_t>(dec.snx)};
}

Array2D<double> zeros_like(const Array2D<double>& f) {
  return Array2D<double>(f.nx(), f.ny(), 0.0);
}

Array3D<double> zeros_like(const Array3D<double>& f) {
  return Array3D<double>(f.nx(), f.ny(), f.nz(), 0.0);
}

void exchange_halo1(comm::Comm& comm, const Decomp& dec, Array2D<double>& f) {
  exchange2d(comm, dec, f, 1);
}

void exchange_halo1(comm::Comm& comm, const Decomp& dec, Array3D<double>& f) {
  exchange3d(comm, dec, f, 1);
}

double dot_interior(const InteriorRuns& in, const double* a, const double* b) {
  double s = 0.0;
  for (std::size_t row = 0; row < in.rows; ++row) {
    const std::size_t o0 = in.first + row * in.stride;
    for (std::size_t o = o0; o < o0 + in.len; ++o) s += a[o] * b[o];
  }
  return s;
}

// p += alpha * d and r += (-alpha) * q in one pass; returns the new
// <r, r>, its terms added in dot_interior's order as r is written.  Each
// pass carries at most one running sum: GCC 12 -O2 packs two into one
// SSE register that it keeps on the stack, a load and a store per cell.
double update_interior(const InteriorRuns& in, double alpha, const double* d,
                       double* p, const double* q, double* r) {
  double s = 0.0;
  for (std::size_t row = 0; row < in.rows; ++row) {
    const std::size_t o0 = in.first + row * in.stride;
    for (std::size_t o = o0; o < o0 + in.len; ++o) {
      p[o] += alpha * d[o];
      const double x = r[o] + -alpha * q[o];
      r[o] = x;
      s += x * x;
    }
  }
  return s;
}

// y = x + beta * y
void xpay_interior(const InteriorRuns& in, const double* x, double beta,
                   double* y) {
  for (std::size_t row = 0; row < in.rows; ++row) {
    const std::size_t o0 = in.first + row * in.stride;
    for (std::size_t o = o0; o < o0 + in.len; ++o) y[o] = x[o] + beta * y[o];
  }
}

// r = b - q; returns <r, r> as update_interior does.
double residual_interior(const InteriorRuns& in, const double* b,
                         const double* q, double* r) {
  double s = 0.0;
  for (std::size_t row = 0; row < in.rows; ++row) {
    const std::size_t o0 = in.first + row * in.stride;
    for (std::size_t o = o0; o < o0 + in.len; ++o) {
      const double x = b[o] - q[o];
      r[o] = x;
      s += x * x;
    }
  }
  return s;
}

template <typename Field, typename Op>
CgResult solve(comm::Comm& comm, const Decomp& dec, const Op& op,
               const Field& b, Field& p, double tol, int max_iter) {
  CgResult res;
  const InteriorRuns in = interior_runs(dec, b);
  const double cells = in.cells();
  Field r = zeros_like(b), z = zeros_like(b), d = zeros_like(b),
        q = zeros_like(b);

  // r = b - L p  (the initial guess usually carries the previous step's
  // pressure, which shortens the solve considerably).
  exchange_halo1(comm, dec, p);
  res.flops += op.apply(p, q);
  const double rr0 = residual_interior(in, b.data(), q.data(), r.data());
  res.flops += cells;

  res.flops += op.precondition(r, z);
  d = z;
  double rz = comm.global_sum(dot_interior(in, r.data(), z.data()));
  res.flops += 2.0 * cells;
  // ||b|| only scales the stopping test and is not flop-charged.
  res.rhs_norm = std::sqrt(
      std::max(comm.global_sum(dot_interior(in, b.data(), b.data())), 0.0));
  const double target = tol * std::max(res.rhs_norm, 1e-300);

  double rr = comm.global_sum(rr0);
  res.flops += 2.0 * cells;
  if (!std::isfinite(rr) || !std::isfinite(rz)) {
    throw SolverDivergence("cg_solve", 0, rr);
  }
  if (std::sqrt(rr) <= target) {
    res.converged = true;
    res.residual = std::sqrt(rr);
    return res;
  }

  // Per-iteration solver spans: each covers the iteration's virtual-time
  // interval (dominated by its exchanges + two global sums; the
  // arithmetic is flop-counted here but clock-charged at the end of the
  // DS) with the iteration's flops as counter payload.  Recording never
  // touches the clock, so tracing leaves solver timing bit-identical.
  cluster::Tracer* tracer = comm.ctx().tracer();
  const auto record_iter = [&](Microseconds t_it, double fl0) {
    if (tracer == nullptr) return;
    cluster::SpanCounters ctr;
    ctr.flops = res.flops - fl0;
    ctr.cg_iterations = 1;
    tracer->record("ds_cg_iter", cluster::SpanCat::kSolver, t_it,
                   comm.ctx().clock().now(), ctr);
  };

  for (int it = 0; it < max_iter; ++it) {
    const Microseconds t_it = comm.ctx().clock().now();
    const double fl_it0 = res.flops;
    // The paper's per-iteration communication: one exchange...
    exchange_halo1(comm, dec, d);
    double dq_local = 0.0;
    res.flops += op.apply(d, q, &dq_local);
    // ...and two global sums.
    const double dq = comm.global_sum(dq_local);
    res.flops += 2.0 * cells;
    if (dq <= 0.0) break;  // L is SPD on the wet subspace; dq==0 => done
    const double alpha = rz / dq;
    const double rr_local =
        update_interior(in, alpha, d.data(), p.data(), q.data(), r.data());
    res.flops += 4.0 * cells;

    res.flops += op.precondition(r, z);
    // The paper's solver applies the exchange to *two* fields per
    // iteration (Eq. 9); the second refreshes the preconditioned
    // residual's halo, which stencil preconditioners (and the original
    // implementation) require.
    exchange_halo1(comm, dec, z);
    // Fused into one butterfly payload; still costed (and counted) as
    // the paper's two global sums.
    std::vector<double> sums{dot_interior(in, r.data(), z.data()), rr_local};
    res.flops += 4.0 * cells;
    comm.global_sum(sums);
    const double rz_new = sums[0];
    const double rr_new = sums[1];
    if (!std::isfinite(rr_new) || !std::isfinite(rz_new)) {
      throw SolverDivergence("cg_solve", it + 1, rr_new);
    }
    res.iterations = it + 1;
    res.residual = std::sqrt(rr_new);
    if (res.residual <= target) {
      res.converged = true;
      record_iter(t_it, fl_it0);
      return res;
    }
    const double beta = rz_new / rz;
    rz = rz_new;
    xpay_interior(in, z.data(), beta, d.data());
    res.flops += 2.0 * cells;
    record_iter(t_it, fl_it0);
  }
  return res;
}

}  // namespace

CgResult cg_solve(comm::Comm& comm, const Decomp& dec,
                  const EllipticOperator& op, const Array2D<double>& b,
                  Array2D<double>& p, double tol, int max_iter) {
  return solve(comm, dec, op, b, p, tol, max_iter);
}

CgResult cg_solve(comm::Comm& comm, const Decomp& dec,
                  const EllipticOperator3& op, const Array3D<double>& b,
                  Array3D<double>& p, double tol, int max_iter) {
  return solve(comm, dec, op, b, p, tol, max_iter);
}

}  // namespace hyades::gcm
