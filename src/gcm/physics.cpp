#include "gcm/physics.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <vector>

#include "gcm/eos.hpp"

namespace hyades::gcm {

namespace {
constexpr double kSecondsPerDay = 86400.0;

inline double at3(const Array3D<double>& f, int i, int j, int k) {
  return f(static_cast<std::size_t>(i), static_cast<std::size_t>(j),
           static_cast<std::size_t>(k));
}
inline double& at3(Array3D<double>& f, int i, int j, int k) {
  return f(static_cast<std::size_t>(i), static_cast<std::size_t>(j),
           static_cast<std::size_t>(k));
}
}  // namespace

double atmos_teq(const ModelConfig& cfg, double lat, double depth_from_top) {
  // Potential temperature increases with height (statically stable) and
  // has a strong equator-to-pole gradient near the surface -- a
  // Held-Suarez-flavoured profile in height coordinates.
  const double sigma = depth_from_top / cfg.total_depth;  // 0 top .. 1 sfc
  const double s2 = std::sin(lat) * std::sin(lat);
  return cfg.theta0 + 30.0 * (1.0 - sigma) - 45.0 * s2 * sigma;
}

double ocean_wind_stress(const ModelConfig& cfg, double lat) {
  // Easterly trades / mid-latitude westerlies bands.
  const double phi = lat / (cfg.lat_extent_deg * M_PI / 180.0);  // -1..1
  return cfg.wind_tau0 * (-std::cos(3.0 * M_PI * phi / 2.0));
}

double ocean_sst_target(const ModelConfig& cfg, double lat) {
  const double phi = lat / (cfg.lat_extent_deg * M_PI / 180.0);
  return cfg.theta0 + 12.0 * (std::cos(M_PI * phi / 1.2) - 0.2);
}

double apply_physics(const ModelConfig& cfg, const TileGrid& grid,
                     const Decomp& dec, State& s,
                     const SurfaceForcing& forcing, const kernels::Range& r) {
  if (!cfg.enable_forcing) return 0.0;
  (void)dec;
  double flops = 0;
  const int nz = cfg.nz;

  if (cfg.isomorph == Isomorph::kAtmosphere) {
    const double inv_tau_rad = 1.0 / (cfg.rad_tau_days * kSecondsPerDay);
    const double inv_tau_fric = 1.0 / (cfg.fric_tau_days * kSecondsPerDay);
    for (int i = r.i0; i < r.i1; ++i) {
      for (int j = r.j0; j < r.j1; ++j) {
        const double lat = grid.latC[static_cast<std::size_t>(j)];
        for (int k = 0; k < nz; ++k) {
          if (grid.hFacC(static_cast<std::size_t>(i),
                         static_cast<std::size_t>(j),
                         static_cast<std::size_t>(k)) <= 0) {
            continue;
          }
          const double teq =
              atmos_teq(cfg, lat, grid.zC[static_cast<std::size_t>(k)]);
          at3(s.gt, i, j, k) += (teq - at3(s.theta, i, j, k)) * inv_tau_rad;
          flops += 10.0;
          // Boundary-layer Rayleigh friction in the two lowest levels.
          if (k >= nz - 2) {
            at3(s.gu, i, j, k) -= at3(s.u, i, j, k) * inv_tau_fric;
            at3(s.gv, i, j, k) -= at3(s.v, i, j, k) * inv_tau_fric;
            flops += 4.0;
          }
        }
        // (physics package continues below: radiation + moisture are
        // applied by the dedicated routines called at the end of
        // apply_physics)
        // Bulk surface heat flux from the coupler's SST (bottom level).
        // The SST field is in the ocean's units (degC); the atmosphere
        // carries potential temperature in K.
        if (forcing.active && !forcing.sst.empty()) {
          const int k = nz - 1;
          if (grid.hFacC(static_cast<std::size_t>(i),
                         static_cast<std::size_t>(j),
                         static_cast<std::size_t>(k)) > 0) {
            const double sst_k = forcing.sst(static_cast<std::size_t>(i),
                                             static_cast<std::size_t>(j)) +
                                 273.15;
            const double coef =
                1.0 / (5.0 * kSecondsPerDay);  // fast boundary-layer coupling
            at3(s.gt, i, j, k) += (sst_k - at3(s.theta, i, j, k)) * coef;
            flops += 4.0;
          }
        }
      }
    }
    flops += gray_radiation(cfg, grid, s, r);
    flops += moisture_cycle(cfg, grid, s, forcing, r);
    return flops;
  }

  // ---- ocean ------------------------------------------------------------
  (void)dec;
  const double inv_tau_restore = 1.0 / (cfg.t_restore_days * kSecondsPerDay);
  const double dz0 = grid.dzf[0];
  const bool coupled = forcing.active && !forcing.taux.empty();
  for (int i = r.i0; i < r.i1; ++i) {
    for (int j = r.j0; j < r.j1; ++j) {
      const double lat = grid.latC[static_cast<std::size_t>(j)];
      const auto si = static_cast<std::size_t>(i);
      const auto sj = static_cast<std::size_t>(j);

      // Wind stress applied to the surface level momentum.
      if (grid.hFacW(si, sj, 0) > 0) {
        const double tx =
            coupled ? forcing.taux(si, sj) : ocean_wind_stress(cfg, lat);
        at3(s.gu, i, j, 0) += tx / (cfg.rho0 * dz0);
        flops += 3.0;
      }
      if (coupled && grid.hFacS(si, sj, 0) > 0) {
        at3(s.gv, i, j, 0) += forcing.tauy(si, sj) / (cfg.rho0 * dz0);
        flops += 3.0;
      }

      // Surface heat: restoring climatology, or the coupler's flux.
      if (grid.hFacC(si, sj, 0) > 0) {
        if (coupled && !forcing.qnet.empty()) {
          // Q / (rho0 cp dz): cp ~ 3990 J/kg/K for seawater.
          at3(s.gt, i, j, 0) +=
              forcing.qnet(si, sj) / (cfg.rho0 * 3990.0 * dz0);
          flops += 3.0;
        } else {
          const double tstar = ocean_sst_target(cfg, lat);
          at3(s.gt, i, j, 0) +=
              (tstar - at3(s.theta, i, j, 0)) * inv_tau_restore;
          flops += 8.0;
        }
      }
    }
  }
  flops += richardson_mixing(cfg, grid, s, r);
  return flops;
}

double gray_radiation(const ModelConfig& cfg, const TileGrid& grid, State& s,
                      const kernels::Range& r) {
  if (!cfg.enable_radiation || cfg.isomorph != Isomorph::kAtmosphere) {
    return 0.0;
  }
  constexpr double kSigmaSB = 5.67e-8;  // W/m^2/K^4
  constexpr double kCp = 1004.0;        // J/kg/K
  const double eps = cfg.rad_emissivity;
  const int nz = cfg.nz;
  double flops = 0;
  std::vector<double> B(static_cast<std::size_t>(nz));
  std::vector<double> D(static_cast<std::size_t>(nz) + 1);
  std::vector<double> U(static_cast<std::size_t>(nz) + 1);
  for (int i = r.i0; i < r.i1; ++i) {
    for (int j = r.j0; j < r.j1; ++j) {
      if (grid.hFacC(static_cast<std::size_t>(i), static_cast<std::size_t>(j),
                     0) <= 0) {
        continue;
      }
      // Layer emissions.
      for (int k = 0; k < nz; ++k) {
        const double th = at3(s.theta, i, j, k);
        const double t2 = th * th;
        B[static_cast<std::size_t>(k)] = kSigmaSB * t2 * t2;
      }
      // Downward sweep from the top of the atmosphere (D = 0 there).
      D[0] = 0.0;
      for (int k = 0; k < nz; ++k) {
        D[static_cast<std::size_t>(k) + 1] =
            D[static_cast<std::size_t>(k)] * (1.0 - eps) +
            eps * B[static_cast<std::size_t>(k)];
      }
      // Upward sweep from the surface (emits like the lowest layer).
      U[static_cast<std::size_t>(nz)] = B[static_cast<std::size_t>(nz - 1)];
      for (int k = nz - 1; k >= 0; --k) {
        U[static_cast<std::size_t>(k)] =
            U[static_cast<std::size_t>(k) + 1] * (1.0 - eps) +
            eps * B[static_cast<std::size_t>(k)];
      }
      // Heating from net-flux convergence (net upward F = U - D).
      for (int k = 0; k < nz; ++k) {
        const double f_top = U[static_cast<std::size_t>(k)] -
                             D[static_cast<std::size_t>(k)];
        const double f_bot = U[static_cast<std::size_t>(k) + 1] -
                             D[static_cast<std::size_t>(k) + 1];
        at3(s.gt, i, j, k) +=
            (f_bot - f_top) /
            (cfg.rho0 * kCp * grid.dzf[static_cast<std::size_t>(k)]);
      }
      flops += 22.0 * nz;
    }
  }
  return flops;
}

double moisture_cycle(const ModelConfig& cfg, const TileGrid& grid, State& s,
                      const SurfaceForcing& forcing,
                      const kernels::Range& r) {
  if (!cfg.enable_moisture || cfg.isomorph != Isomorph::kAtmosphere) {
    return 0.0;
  }
  constexpr double kTauCondense = 3600.0;     // 1 hour
  constexpr double kTauEvap = 2.0 * 86400.0;  // 2 days
  const int nz = cfg.nz;
  double flops = 0;
  for (int i = r.i0; i < r.i1; ++i) {
    for (int j = r.j0; j < r.j1; ++j) {
      for (int k = 0; k < nz; ++k) {
        if (grid.hFacC(static_cast<std::size_t>(i),
                       static_cast<std::size_t>(j),
                       static_cast<std::size_t>(k)) <= 0) {
          continue;
        }
        const double th = at3(s.theta, i, j, k);
        const double q = at3(s.salt, i, j, k);
        const double qsat =
            cfg.q_ref * std::exp(0.0625 * (th - cfg.q_theta_ref));
        if (q > qsat) {
          const double rate = (q - qsat) / kTauCondense;
          at3(s.gs, i, j, k) -= rate;
          at3(s.gt, i, j, k) += cfg.latent_heat_over_cp * rate;
          flops += 5.0;
        }
        // Surface evaporation toward 80% relative humidity; slightly
        // enhanced over warm SST when coupled.
        if (k == nz - 1) {
          double target = 0.8 * qsat;
          if (forcing.active && !forcing.sst.empty()) {
            const double sst_k = forcing.sst(static_cast<std::size_t>(i),
                                             static_cast<std::size_t>(j)) +
                                 273.15;
            target = 0.8 * cfg.q_ref *
                     std::exp(0.0625 * (sst_k - cfg.q_theta_ref));
            flops += 18.0;
          }
          at3(s.gs, i, j, k) += (target - q) / kTauEvap;
          flops += 4.0;
        }
        flops += 18.0;
      }
    }
  }
  return flops;
}

double richardson_mixing(const ModelConfig& cfg, const TileGrid& grid,
                         State& s, const kernels::Range& r) {
  if (!cfg.enable_ri_mixing || cfg.isomorph != Isomorph::kOcean) {
    return 0.0;
  }
  const int nz = cfg.nz;
  if (nz < 2) return 0.0;
  assert(kernels::empty(r) ||  // the column walks bypass the Array asserts
         (r.i0 >= 0 && r.j0 >= 0 &&
          r.i1 <= static_cast<int>(grid.hFacC.nx()) &&
          r.j1 <= static_cast<int>(grid.hFacC.ny())));
  const auto nzs = static_cast<std::size_t>(nz);
  // Center spacings across each interface k (between levels k-1 and k).
  std::vector<double> dzc(nzs, 0.0);
  for (std::size_t k = 1; k < nzs; ++k) dzc[k] = grid.zC[k] - grid.zC[k - 1];
  std::vector<double> nu(nzs + 1, 0.0);    // interface diffusivities
  std::vector<double> flux(nzs + 1, 0.0);  // interface fluxes; 0 at the ends
  std::vector<double> b(nzs);              // level buoyancies
  long flops = 0;
  for (int i = r.i0; i < r.i1; ++i) {
    for (int j = r.j0; j < r.j1; ++j) {
      const auto si = static_cast<std::size_t>(i);
      const auto sj = static_cast<std::size_t>(j);
      const double* hf = grid.hFacC.column(si, sj);
      const double* th = s.theta.column(si, sj);
      const double* sa = s.salt.column(si, sj);
      const double* uc = s.u.column(si, sj);
      const double* vc = s.v.column(si, sj);
      for (std::size_t k = 0; k < nzs; ++k) {
        if (hf[k] > 0) b[k] = buoyancy(cfg, th[k], sa[k]);
      }
      // Interface diffusivities from the local Richardson number.
      for (std::size_t k = 1; k < nzs; ++k) {
        nu[k] = 0.0;
        if (hf[k] <= 0 || hf[k - 1] <= 0) continue;
        const double n2 = (b[k - 1] - b[k]) / dzc[k];  // > 0 when stable
        const double du = (uc[k - 1] - uc[k]);
        const double dv = (vc[k - 1] - vc[k]);
        const double shear2 = (du * du + dv * dv) / (dzc[k] * dzc[k]) + 1e-12;
        const double ri = std::max(n2 / shear2, 0.0);
        const double denom = 1.0 + 5.0 * ri;
        nu[k] = cfg.ri_nu0 / (denom * denom);
        flops += 26;
      }
      // Conservative vertical diffusion with the interface coefficients:
      // each interface flux is computed once, as the bottom flux of the
      // level above and the top flux of the level below.
      auto diffuse = [&](const Array3D<double>& f, Array3D<double>& g) {
        const double* fc = f.column(si, sj);
        double* gc = g.column(si, sj);
        for (std::size_t k = 1; k < nzs; ++k) {
          flux[k] = nu[k] > 0 ? nu[k] * (fc[k - 1] - fc[k]) / dzc[k] : 0.0;
        }
        for (std::size_t k = 0; k < nzs; ++k) {
          if (hf[k] <= 0) continue;
          // Divide by the *open* thickness so column totals telescope
          // exactly even through partial bottom cells.
          gc[k] += (flux[k] - flux[k + 1]) / (grid.dzf[k] * hf[k]);
          flops += 10;
        }
      };
      diffuse(s.theta, s.gt);
      diffuse(s.salt, s.gs);
      diffuse(s.u, s.gu);
      diffuse(s.v, s.gv);
    }
  }
  return static_cast<double>(flops);
}

double convective_adjustment(const ModelConfig& cfg, const TileGrid& grid,
                             Array3D<double>& theta, const kernels::Range& r) {
  if (!cfg.enable_convection || cfg.isomorph != Isomorph::kAtmosphere) {
    return 0.0;
  }
  double flops = 0;
  const int nz = cfg.nz;
  // Pool-adjacent-violators over each column: stability in depth
  // coordinates requires theta non-increasing with k (theta(k+1) sits
  // *below* theta(k); a warmer level below is statically unstable).
  // Merging adjacent unstable blocks into mass-weighted pools yields the
  // exactly-stable, heat-conserving adjusted profile in one pass.
  struct Pool {
    double mass, heat;
    int first, count;
    [[nodiscard]] double value() const { return heat / mass; }
  };
  std::vector<Pool> pools;
  pools.reserve(static_cast<std::size_t>(nz));
  for (int i = r.i0; i < r.i1; ++i) {
    for (int j = r.j0; j < r.j1; ++j) {
      const auto si = static_cast<std::size_t>(i);
      const auto sj = static_cast<std::size_t>(j);
      pools.clear();
      for (int k = 0; k < nz; ++k) {
        const double h = grid.hFacC(si, sj, static_cast<std::size_t>(k));
        if (h <= 0) break;  // below the bottom
        const double mass = grid.dzf[static_cast<std::size_t>(k)] * h;
        pools.push_back(
            Pool{mass, mass * at3(theta, i, j, k), k, 1});
        while (pools.size() >= 2 &&
               pools.back().value() >
                   pools[pools.size() - 2].value() + 1e-14) {
          Pool lower = pools.back();
          pools.pop_back();
          Pool& upper = pools.back();
          upper.mass += lower.mass;
          upper.heat += lower.heat;
          upper.count += lower.count;
          flops += 4.0;
        }
        flops += 4.0;
      }
      for (const Pool& pool : pools) {
        if (pool.count == 1) continue;
        for (int k = pool.first; k < pool.first + pool.count; ++k) {
          at3(theta, i, j, k) = pool.value();
        }
        flops += pool.count;
      }
    }
  }
  return flops;
}

}  // namespace hyades::gcm
