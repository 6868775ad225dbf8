// Facade tying one tile's grid, state and stepper together behind the
// public API a model user sees.  Every rank of a component's
// communicator group constructs one Model; methods marked *collective*
// must be called by all ranks of the group together.
#pragma once

#include <cstdint>
#include <memory>

#include "comm/comm.hpp"
#include "comm/reliable.hpp"
#include "gcm/config.hpp"
#include "gcm/decomp.hpp"
#include "gcm/grid.hpp"
#include "gcm/state.hpp"
#include "gcm/step.hpp"

namespace hyades::gcm {

class Model {
 public:
  // The comm group's size must equal cfg.px * cfg.py (one tile per rank).
  Model(const ModelConfig& cfg, comm::Comm& comm);

  // Set the initial stratification plus a small deterministic
  // perturbation keyed to *global* cell indices (so different
  // decompositions start from the same global state).
  void initialize(std::uint64_t seed = 7);

  // Advance one step / many steps (collective).
  StepStats step(const SurfaceForcing* forcing = nullptr);

  // Run `steps` steps with climatological forcing (collective).
  // Packet faults cost only virtual time here: comm/reliable redelivers
  // every faulted transfer intact, and one that exhausts its retries
  // throws DeliveryFailure.  Node loss is run_resilient's job.
  void run(int steps);

  // ---- diagnostics (collective; identical result on every rank) ------
  double mean_theta();
  double total_theta_volume();   // sum theta * cell volume (conservation)
  double total_salt_volume();
  double kinetic_energy();       // 0.5 rho0 sum (u^2+v^2) V
  double max_abs_w();
  double max_cfl();              // advective CFL over the tile interior
  double max_surface_divergence();  // residual of eq. (2) after projection

  // Computational load imbalance across the group's tiles: the busiest
  // tile's wet-cell count over the mean (1.0 = perfectly balanced).  The
  // paper's Figure 5 notes tile connectivity "can be tuned to reduce the
  // overall computational load"; with land-heavy tiles the whole group
  // waits for the wettest tile at every global sum.
  double load_imbalance();

  // Gather a horizontal field to group rank 0 (collective); other ranks
  // receive an empty array.  k selects the level for 3-D fields.
  Array2D<double> gather_theta(int k);
  Array2D<double> gather_speed(int k);  // cell-centered |u|
  Array2D<double> gather_ps();

  // ---- checkpoint / restart -------------------------------------------
  // Each rank writes/reads its own tile file "<prefix>.rank<N>".  A
  // restarted run continues bit-identically (the Adams-Bashforth history
  // and the step counter are included).  Files are self-describing
  // ("HYADES03": magic, config words, step, payload size, CRC-32) and
  // published atomically (written to "<path>.tmp", then renamed), so a
  // crash mid-save leaves the previous complete checkpoint intact.  load
  // fails fast with a descriptive error on a bad magic, configuration
  // mismatch, truncation, or CRC failure -- corrupt state never reaches
  // the fields.
  void save_checkpoint(const std::string& prefix) const;
  void load_checkpoint(const std::string& prefix);

  [[nodiscard]] const ModelConfig& config() const { return cfg_; }
  [[nodiscard]] const Decomp& decomp() const { return dec_; }
  [[nodiscard]] const TileGrid& grid() const { return grid_; }
  State& state() { return state_; }
  [[nodiscard]] const State& state() const { return state_; }
  Timestepper& stepper() { return *stepper_; }
  comm::Comm& comm() { return comm_; }

 private:
  Array2D<double> gather2d(const Array2D<double>& local);
  double sum_weighted(const Array3D<double>& f, bool squared, bool weight_ke);

  ModelConfig cfg_;
  comm::Comm& comm_;
  comm::Reliable rel_;  // the field gathers' transport
  Decomp dec_;
  TileGrid grid_;
  State state_;
  std::unique_ptr<Timestepper> stepper_;
};

}  // namespace hyades::gcm
