// The time-stepping loop of Figure 6: each step runs the Prognostic Step
// (PS: one halo exchange per 3-D state field, then tendency kernels with
// overcomputation) and the Diagnostic Step (DS: the elliptic surface
// pressure solve, two 2-D exchanges + two global sums per CG iteration),
// then applies the pressure correction that enforces eq. (2).
//
// Alongside the numerics the stepper keeps the performance observables
// the paper's model consumes (Figure 11): flops per phase, exchange and
// solver communication time, and the mean CG iteration count Ni.
#pragma once

#include <memory>

#include "comm/comm.hpp"
#include "gcm/cg.hpp"
#include "gcm/config.hpp"
#include "gcm/elliptic.hpp"
#include "gcm/elliptic3.hpp"
#include "gcm/grid.hpp"
#include "gcm/physics.hpp"
#include "gcm/state.hpp"

namespace hyades::gcm {

struct StepStats {
  Microseconds tps_us = 0;       // PS wall (virtual) time
  Microseconds tps_exch_us = 0;  // of which halo exchange (start+wait)
  // Overlap mode (ModelConfig::overlap_comm) only; both 0 when off:
  Microseconds tps_interior_us = 0;  // interior compute under the exchange
  Microseconds overlap_us = 0;       // comm time hidden under compute
  Microseconds tds_us = 0;       // DS wall time (solve + correction)
  int cg_iterations = 0;
  double cg_residual = 0.0;
  bool cg_converged = false;
  int cg3_iterations = 0;        // non-hydrostatic solve (0 when hydrostatic)
  bool cg3_converged = true;
  double ps_flops = 0.0;
  double ds_flops = 0.0;
};

// Accumulated observables for the performance model (Section 5.2).
struct PerfObservables {
  long steps = 0;
  double ps_flops = 0, ds_flops = 0;
  long cg_iterations = 0;
  Microseconds tps_us = 0, tps_exch_us = 0, tds_us = 0;
  Microseconds tps_interior_us = 0, overlap_us = 0;  // overlap mode only

  [[nodiscard]] double mean_ni() const {
    return steps ? static_cast<double>(cg_iterations) /
                       static_cast<double>(steps)
                 : 0.0;
  }
  // Flops per wet interior cell per step (the paper's Nps).
  [[nodiscard]] double nps(std::int64_t wet_cells) const {
    return steps && wet_cells ? ps_flops / static_cast<double>(steps) /
                                    static_cast<double>(wet_cells)
                              : 0.0;
  }
  // Flops per wet column per CG iteration (the paper's Nds).
  [[nodiscard]] double nds(std::int64_t wet_columns) const {
    return cg_iterations && wet_columns
               ? ds_flops / static_cast<double>(cg_iterations) /
                     static_cast<double>(wet_columns)
               : 0.0;
  }
};

class Timestepper {
 public:
  Timestepper(const ModelConfig& cfg, comm::Comm& comm, const Decomp& dec,
              const TileGrid& grid, State& state);

  // Advance one time step.  `forcing` supplies coupler boundary
  // conditions (may be null for climatological forcing).
  StepStats step(const SurfaceForcing* forcing = nullptr);

  [[nodiscard]] const PerfObservables& observables() const { return obs_; }
  [[nodiscard]] const EllipticOperator& elliptic() const { return op_; }

 private:
  const ModelConfig& cfg_;
  comm::Comm& comm_;
  const Decomp& dec_;
  const TileGrid& grid_;
  State& state_;
  EllipticOperator op_;
  Array2D<double> rhs_;
  Array3D<double> scratch_;  // biharmonic work array
  // Non-hydrostatic machinery (allocated only when enabled).
  std::unique_ptr<EllipticOperator3> op3_;
  Array3D<double> rhs3_;
  Array3D<double> wmask_;  // 1 on open w points
  SurfaceForcing no_forcing_;
  PerfObservables obs_;
};

}  // namespace hyades::gcm
