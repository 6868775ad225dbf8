#include "gcm/config.hpp"

#include <bit>

#include "support/rng.hpp"

namespace hyades::gcm {

namespace {

// Incremental fingerprint built on the SplitMix64 finalizer: absorbing
// each field through hash_mix keeps the result a pure function of the
// field *sequence*, so reordering or dropping a field changes the hash.
struct Digest {
  std::uint64_t h = 0x48594144u;  // "HYAD"
  void word(std::uint64_t w) { h = hash_mix(h, {w}); }
  void real(double v) { word(std::bit_cast<std::uint64_t>(v)); }
  void integer(int v) { word(static_cast<std::uint64_t>(static_cast<std::int64_t>(v))); }
  void boolean(bool v) { word(v ? 1u : 0u); }
};

}  // namespace

std::uint64_t ModelConfig::fingerprint() const {
  Digest d;
  d.integer(static_cast<int>(isomorph));
  d.integer(nx);
  d.integer(ny);
  d.integer(nz);
  d.real(lat_extent_deg);
  d.integer(px);
  d.integer(py);
  d.integer(halo);
  d.real(dt);
  d.real(radius);
  d.real(omega);
  d.real(gravity);
  d.real(rho0);
  d.real(theta0);
  d.real(salt0);
  d.real(eos_alpha);
  d.real(eos_beta);
  d.real(visc_h);
  d.real(visc_v);
  d.real(diff_h);
  d.real(diff_v);
  d.real(visc_4);
  d.real(diff_4);
  d.boolean(enable_ri_mixing);
  d.real(ri_nu0);
  d.boolean(enable_radiation);
  d.real(rad_emissivity);
  d.boolean(enable_moisture);
  d.real(q_ref);
  d.real(q_theta_ref);
  d.real(latent_heat_over_cp);
  d.integer(static_cast<int>(advection));
  d.boolean(implicit_vertical_mixing);
  d.real(ab_eps);
  d.boolean(overlap_comm);
  d.real(cg_tol);
  d.integer(cg_max_iter);
  d.boolean(cg_jacobi);
  d.boolean(nonhydrostatic);
  d.real(cg3_tol);
  d.integer(cg3_max_iter);
  d.word(static_cast<std::uint64_t>(dz.size()));
  for (const double v : dz) d.real(v);
  d.real(total_depth);
  d.integer(static_cast<int>(topography));
  d.real(wind_tau0);
  d.real(t_restore_days);
  d.real(rad_tau_days);
  d.real(fric_tau_days);
  d.boolean(enable_forcing);
  d.boolean(enable_convection);
  d.real(fps_mflops);
  d.real(fds_mflops);
  return d.h;
}

// The coupled-run configurations of Section 5: both components at
// 2.8125-degree zonal resolution on a 128 x 64 lateral grid.  The
// vertical extents are inferred from Figure 11's per-processor cell
// counts (see DESIGN.md): ocean 30 levels, atmosphere 10 levels.

ModelConfig ocean_preset(int px, int py) {
  ModelConfig c;
  c.isomorph = Isomorph::kOcean;
  c.nx = 128;
  c.ny = 64;
  c.nz = 30;
  c.px = px;
  c.py = py;
  c.halo = 3;
  c.dt = 400.0;
  c.cg_tol = 1.0e-6;  // paper-era solver accuracy; keeps Ni near 60
  c.total_depth = 4000.0;
  c.topography = ModelConfig::Topography::kContinents;
  c.rho0 = 1029.0;
  c.theta0 = 15.0;
  c.eos_alpha = 2.0e-4;
  c.eos_beta = 7.4e-4;
  c.visc_h = 1.0e5;
  c.visc_v = 1.0e-3;
  c.diff_h = 1.0e3;
  c.diff_v = 1.0e-5;
  c.visc_4 = 1.0e14;  // biharmonic mixing, scale-selective at 2.8 deg
  c.diff_4 = 1.0e14;
  c.enable_ri_mixing = true;
  c.advection = ModelConfig::Advection::kDst3;
  c.implicit_vertical_mixing = true;
  c.validate();
  return c;
}

ModelConfig atmosphere_preset(int px, int py) {
  ModelConfig c;
  c.isomorph = Isomorph::kAtmosphere;
  c.nx = 128;
  c.ny = 64;
  c.nz = 10;
  c.px = px;
  c.py = py;
  c.halo = 3;
  c.dt = 400.0;
  c.cg_tol = 1.0e-6;
  c.total_depth = 1.0e4;  // 10 km column in height coordinates
  c.topography = ModelConfig::Topography::kFlat;
  c.rho0 = 1.2;
  c.theta0 = 300.0;
  c.eos_alpha = 1.0 / 300.0;  // b = g theta'/theta_ref
  c.eos_beta = 0.0;           // `salt` becomes a passive moisture proxy
  c.visc_h = 3.0e5;
  c.visc_v = 1.0e-2;
  c.diff_h = 1.0e5;
  c.diff_v = 1.0e-3;
  c.visc_4 = 1.0e14;
  c.diff_4 = 1.0e14;
  c.advection = ModelConfig::Advection::kDst3;
  c.implicit_vertical_mixing = true;
  c.enable_radiation = true;
  c.enable_moisture = true;
  c.salt0 = 0.005;    // `salt` carries the moisture mixing ratio
  c.wind_tau0 = 0.0;  // no surface stress forcing; physics drives the flow
  c.validate();
  return c;
}

}  // namespace hyades::gcm
