// Configuration for the MIT-GCM-style finite-volume model (Section 3).
//
// One numerical kernel serves both climate components: the paper's
// "isomorphism" between the incompressible ocean and the compressible
// atmosphere means the same semi-discrete equations (1)-(3) are stepped
// for both, with different vertical grids, equations of state and
// forcing.  We realize the atmosphere as a Boussinesq fluid in height
// coordinates with potential-temperature buoyancy -- a simplification
// that preserves the isomorphism (and the computational structure, which
// is what the performance study exercises).
#pragma once

#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <vector>

namespace hyades::gcm {

enum class Isomorph { kOcean, kAtmosphere };

struct ModelConfig {
  Isomorph isomorph = Isomorph::kOcean;

  // Global horizontal grid (lateral size 128 x 64 at the paper's 2.8125
  // degree resolution).  x is periodic (longitude); y is bounded.  The
  // grid spans latitudes [-lat_extent, +lat_extent]; staying away from
  // the poles plays the role of the paper's polar treatment.
  int nx = 128;
  int ny = 64;
  int nz = 30;  // ocean 30 / atmosphere 10 levels (see DESIGN.md)
  double lat_extent_deg = 80.0;

  // Tile decomposition: px * py tiles, one per rank of the component's
  // communicator group.  nx % px == 0 and ny % py == 0.
  int px = 4;
  int py = 4;
  int halo = 3;  // PS-phase halo width (overcomputation, Section 4)

  double dt = 400.0;  // seconds

  // Planetary constants.
  double radius = 6.371e6;     // m
  double omega = 7.292e-5;     // 1/s
  double gravity = 9.81;       // m/s^2

  // Fluid constants.
  double rho0 = 1029.0;        // reference density (kg/m^3)
  double theta0 = 15.0;        // reference temperature (degC or K offset)
  double salt0 = 35.0;         // reference salinity (psu) / moisture proxy
  double eos_alpha = 2.0e-4;   // thermal expansion (1/K)
  double eos_beta = 7.4e-4;    // haline contraction (1/psu)

  // Mixing coefficients.
  double visc_h = 1.0e5;   // horizontal viscosity (m^2/s)
  double visc_v = 1.0e-3;  // vertical viscosity
  double diff_h = 1.0e3;   // horizontal tracer diffusivity
  double diff_v = 1.0e-5;  // vertical tracer diffusivity
  double visc_4 = 0.0;     // biharmonic viscosity (m^4/s), 0 = off
  double diff_4 = 0.0;     // biharmonic tracer diffusivity

  // Richardson-number vertical mixing (ocean; Pacanowski-Philander).
  bool enable_ri_mixing = false;
  double ri_nu0 = 5.0e-2;  // peak mixing coefficient (m^2/s)

  // Gray-radiation and moisture cycle (atmosphere physics package).
  bool enable_radiation = false;
  double rad_emissivity = 0.10;  // per-layer longwave emissivity
  bool enable_moisture = false;
  double q_ref = 0.010;          // saturation mixing ratio at theta_ref
  double q_theta_ref = 290.0;    // reference temperature for q_sat (K)
  double latent_heat_over_cp = 2500.0;  // K per unit mixing ratio

  // Tracer advection: 2nd-order centered, or 3rd-order direct space-time
  // (upwind-biased, scale-selective; needs halo >= 3).
  enum class Advection { kCentered2, kDst3 };
  Advection advection = Advection::kCentered2;

  // Vertical diffusion/viscosity treatment: implicit (backward Euler,
  // unconditionally stable column tridiagonals) or explicit in the
  // tendencies.
  bool implicit_vertical_mixing = false;

  // Adams-Bashforth stabilizing offset.
  double ab_eps = 0.01;

  // Compute/communication overlap in the PS (split-phase halo
  // exchanges): start all five 3-D exchanges, compute the tendency
  // kernels on the tile interior while the strips are in flight, finish
  // the exchanges, then compute the halo rim.  Numerics are bitwise
  // identical either way (the interior pass reads only tile-owned
  // cells); only the virtual timing changes.  Default off so the seed's
  // paper-calibration timing is reproduced exactly.
  bool overlap_comm = false;

  // Pressure (DS) solver.
  double cg_tol = 1.0e-7;
  int cg_max_iter = 500;
  bool cg_jacobi = false;  // true: plain Jacobi preconditioner (ablation)

  // Non-hydrostatic mode (Section 3.1): w becomes prognostic and a 3-D
  // elliptic solve finds the non-hydrostatic pressure after the 2-D
  // surface solve.  The climate configurations stay hydrostatic (the
  // paper: "the flow in the climate scale simulations presented here is
  // hydrostatic"); this mode serves fine-scale process studies.
  bool nonhydrostatic = false;
  double cg3_tol = 1.0e-7;
  int cg3_max_iter = 500;

  // Vertical grid: level thicknesses (m).  Empty -> uniform layers over
  // total_depth.
  std::vector<double> dz;
  double total_depth = 4000.0;  // ocean depth / atmosphere column height

  // Topography: flat bottom, an idealized mid-basin ridge, idealized
  // continents (exercises the finite-volume mask/partial-cell machinery
  // of Figure 4), or a closed rectangular basin (a meridional land strip
  // interrupts the periodic channel -- the classic gyre setup).
  enum class Topography { kFlat, kRidge, kContinents, kBasin };
  Topography topography = Topography::kFlat;

  // Forcing.
  double wind_tau0 = 0.1;          // ocean surface wind stress (N/m^2)
  double t_restore_days = 30.0;    // surface temperature restoring
  double rad_tau_days = 40.0;      // atmospheric radiative relaxation
  double fric_tau_days = 1.0;      // boundary-layer Rayleigh friction
  bool enable_forcing = true;
  bool enable_convection = true;   // atmosphere convective adjustment

  // Processor model (Figure 11): sustained MFlop/s on the PS and DS
  // kernels of a 400 MHz PII.
  double fps_mflops = 50.0;
  double fds_mflops = 60.0;

  // ---- derived helpers -------------------------------------------------
  [[nodiscard]] double dlon_rad() const { return 2.0 * M_PI / nx; }
  [[nodiscard]] double dlat_rad() const {
    return 2.0 * lat_extent_deg * (M_PI / 180.0) / ny;
  }
  [[nodiscard]] double lat0_rad() const {
    return -lat_extent_deg * (M_PI / 180.0);
  }
  [[nodiscard]] int tiles() const { return px * py; }
  [[nodiscard]] int snx() const { return nx / px; }
  [[nodiscard]] int sny() const { return ny / py; }

  [[nodiscard]] std::vector<double> level_thicknesses() const {
    if (!dz.empty()) {
      if (static_cast<int>(dz.size()) != nz) {
        throw std::invalid_argument("ModelConfig: dz size != nz");
      }
      return dz;
    }
    return std::vector<double>(static_cast<std::size_t>(nz),
                               total_depth / nz);
  }

  void validate() const {
    if (nx < 1 || ny < 1 || nz < 1) {
      throw std::invalid_argument("ModelConfig: bad grid dims");
    }
    if (px < 1 || py < 1 || px > nx || py > ny) {
      throw std::invalid_argument("ModelConfig: more tiles than grid cells");
    }
    // snx()/sny() are the floor-division base tile sizes; remainder
    // cells go to the leading tiles (see gcm/decomp.hpp), so the halo
    // must fit the smallest tile.
    if (halo < 1 || halo > snx() || halo > sny()) {
      throw std::invalid_argument("ModelConfig: bad halo width");
    }
    if (dt <= 0) throw std::invalid_argument("ModelConfig: dt <= 0");
    (void)level_thicknesses();
  }

  // Order- and value-stable 64-bit fingerprint of every field that
  // affects the computation (doubles hashed by bit pattern, so two
  // configs collide only when the stepped equations are bit-identical).
  // The ensemble farm's result cache keys on (fingerprint, init seed):
  // a field added here without extending the hash would silently alias
  // distinct configurations, so config.cpp hashes *all* members and
  // Config.FingerprintMovesWithEveryField (tests/farm/farm_test.cpp)
  // fails for any field the hash does not see.
  [[nodiscard]] std::uint64_t fingerprint() const;
};

// Paper-matching presets for the coupled 2.8125-degree climate run.
ModelConfig ocean_preset(int px, int py);
ModelConfig atmosphere_preset(int px, int py);

}  // namespace hyades::gcm
