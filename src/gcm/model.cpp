#include "gcm/model.hpp"

#include <array>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <stdexcept>
#include <vector>


#include "gcm/eos.hpp"
#include "gcm/physics.hpp"
#include "gcm/tile_ckpt.hpp"
#include "support/rng.hpp"

namespace hyades::gcm {

namespace {
constexpr int kTagGather = 3000;

// Deterministic per-cell noise in [-0.5, 0.5), a function of the global
// indices only.
double cell_noise(std::uint64_t seed, int gi, int gj, int k) {
  SplitMix64 rng(seed ^ (static_cast<std::uint64_t>(gi) * 73856093u) ^
                 (static_cast<std::uint64_t>(gj) * 19349663u) ^
                 (static_cast<std::uint64_t>(k) * 83492791u));
  return rng.next_double() - 0.5;
}
}  // namespace

Model::Model(const ModelConfig& cfg, comm::Comm& comm)
    : cfg_(cfg),
      comm_(comm),
      rel_(comm.ctx()),
      dec_(cfg, comm.group_rank()),
      grid_(cfg, dec_) {
  cfg_.validate();
  if (comm.group_size() != cfg.tiles()) {
    throw std::invalid_argument("Model: comm group size != px*py");
  }
  state_.allocate(dec_, cfg_.nz);
  stepper_ = std::make_unique<Timestepper>(cfg_, comm_, dec_, grid_, state_);
}

void Model::initialize(std::uint64_t seed) {
  const int ex = dec_.ext_x();
  const int ey = dec_.ext_y();
  for (int i = 0; i < ex; ++i) {
    for (int j = 0; j < ey; ++j) {
      const int gi = ((dec_.global_i(i) % cfg_.nx) + cfg_.nx) % cfg_.nx;
      const int gj = dec_.global_j(j);
      const double lat = grid_.latC[static_cast<std::size_t>(j)];
      for (int k = 0; k < cfg_.nz; ++k) {
        if (grid_.hFacC(static_cast<std::size_t>(i), static_cast<std::size_t>(j),
                        static_cast<std::size_t>(k)) <= 0) {
          continue;
        }
        const double z = grid_.zC[static_cast<std::size_t>(k)];
        double theta;
        if (cfg_.isomorph == Isomorph::kAtmosphere) {
          theta = atmos_teq(cfg_, lat, z);
        } else {
          // Thermocline-like stratification with a surface meridional
          // gradient.
          const double sfc = std::exp(-z / 800.0);
          theta = cfg_.theta0 + 12.0 * sfc - 6.0 * std::sin(lat) * std::sin(lat) * sfc - 2.0 * z / cfg_.total_depth;
        }
        theta += 1.0e-3 * cell_noise(seed, gi, std::max(gj, 0), k);
        state_.theta(static_cast<std::size_t>(i), static_cast<std::size_t>(j),
                     static_cast<std::size_t>(k)) = theta;
        state_.salt(static_cast<std::size_t>(i), static_cast<std::size_t>(j),
                    static_cast<std::size_t>(k)) = cfg_.salt0;
      }
    }
  }
}

StepStats Model::step(const SurfaceForcing* forcing) {
  return stepper_->step(forcing);
}

void Model::run(int steps) {
  for (int s = 0; s < steps; ++s) (void)step();
}

double Model::sum_weighted(const Array3D<double>& f, bool squared,
                           bool weight_ke) {
  double local = 0.0;
  for (int i = dec_.halo; i < dec_.halo + dec_.snx; ++i) {
    for (int j = dec_.halo; j < dec_.halo + dec_.sny; ++j) {
      for (int k = 0; k < cfg_.nz; ++k) {
        const auto si = static_cast<std::size_t>(i);
        const auto sj = static_cast<std::size_t>(j);
        const auto sk = static_cast<std::size_t>(k);
        const double hfac =
            weight_ke ? grid_.hFacW(si, sj, sk) : grid_.hFacC(si, sj, sk);
        if (hfac <= 0) continue;
        const double vol = grid_.rAc[sj] * grid_.dzf[sk] * hfac;
        const double x = f(si, sj, sk);
        local += (squared ? x * x : x) * vol;
      }
    }
  }
  return comm_.global_sum(local);
}

double Model::total_theta_volume() {
  return sum_weighted(state_.theta, false, false);
}
double Model::total_salt_volume() {
  return sum_weighted(state_.salt, false, false);
}

double Model::mean_theta() {
  double vol = 0.0;
  for (int j = dec_.halo; j < dec_.halo + dec_.sny; ++j) {
    for (int i = dec_.halo; i < dec_.halo + dec_.snx; ++i) {
      for (int k = 0; k < cfg_.nz; ++k) {
        const auto sj = static_cast<std::size_t>(j);
        const double h = grid_.hFacC(static_cast<std::size_t>(i), sj,
                                     static_cast<std::size_t>(k));
        if (h > 0) vol += grid_.rAc[sj] * grid_.dzf[static_cast<std::size_t>(k)] * h;
      }
    }
  }
  const double total_vol = comm_.global_sum(vol);
  return total_vol > 0 ? total_theta_volume() / total_vol : 0.0;
}

double Model::kinetic_energy() {
  const double uu = sum_weighted(state_.u, true, true);
  // v-face weighting approximated with hFacW as well (diagnostic only).
  const double vv = sum_weighted(state_.v, true, true);
  return 0.5 * cfg_.rho0 * (uu + vv);
}

double Model::max_abs_w() {
  double local = 0.0;
  for (int i = dec_.halo; i < dec_.halo + dec_.snx; ++i) {
    for (int j = dec_.halo; j < dec_.halo + dec_.sny; ++j) {
      for (int k = 0; k < cfg_.nz; ++k) {
        local = std::max(local,
                         std::abs(state_.w(static_cast<std::size_t>(i),
                                           static_cast<std::size_t>(j),
                                           static_cast<std::size_t>(k))));
      }
    }
  }
  return comm_.global_max(local);
}

double Model::max_cfl() {
  double local = 0.0;
  for (int i = dec_.halo; i < dec_.halo + dec_.snx; ++i) {
    for (int j = dec_.halo; j < dec_.halo + dec_.sny; ++j) {
      const auto sj = static_cast<std::size_t>(j);
      for (int k = 0; k < cfg_.nz; ++k) {
        const auto si = static_cast<std::size_t>(i);
        const auto sk = static_cast<std::size_t>(k);
        local = std::max(
            local, std::abs(state_.u(si, sj, sk)) * cfg_.dt / grid_.dxC[sj]);
        local = std::max(
            local, std::abs(state_.v(si, sj, sk)) * cfg_.dt / grid_.dyC);
        local = std::max(local, std::abs(state_.w(si, sj, sk)) * cfg_.dt /
                                    grid_.dzf[sk]);
      }
    }
  }
  return comm_.global_max(local);
}

double Model::max_surface_divergence() {
  double local = 0.0;
  for (int i = dec_.halo; i < dec_.halo + dec_.snx; ++i) {
    for (int j = dec_.halo; j < dec_.halo + dec_.sny; ++j) {
      double div = 0.0;
      bool wet = false;
      for (int k = 0; k < cfg_.nz; ++k) {
        if (grid_.hFacC(static_cast<std::size_t>(i), static_cast<std::size_t>(j),
                        static_cast<std::size_t>(k)) <= 0) {
          continue;
        }
        wet = true;
        div += kernels::column_flux_divergence(grid_, state_.u, state_.v, i,
                                               j, k);
      }
      if (wet) {
        local = std::max(
            local, std::abs(div) / grid_.rAc[static_cast<std::size_t>(j)]);
      }
    }
  }
  return comm_.global_max(local);
}

double Model::load_imbalance() {
  const auto mine = static_cast<double>(grid_.wet_cells());
  const double total = comm_.global_sum(mine);
  const double busiest = comm_.global_max(mine);
  const double mean = total / comm_.group_size();
  return mean > 0 ? busiest / mean : 1.0;
}

Array2D<double> Model::gather2d(const Array2D<double>& local) {
  auto& ctx = comm_.ctx();
  const auto bytes = static_cast<std::int64_t>(
      static_cast<std::size_t>(dec_.snx * dec_.sny) * sizeof(double));
  const int root_abs = ctx.rank() - comm_.group_rank();  // group rank 0

  if (comm_.group_rank() != 0) {
    std::vector<double> payload;
    payload.reserve(static_cast<std::size_t>(dec_.snx * dec_.sny));
    for (int i = 0; i < dec_.snx; ++i) {
      for (int j = 0; j < dec_.sny; ++j) {
        payload.push_back(local(static_cast<std::size_t>(i),
                                static_cast<std::size_t>(j)));
      }
    }
    const Microseconds stamp =
        ctx.clock().now() + ctx.net().transfer_time(bytes);
    rel_.send(root_abs, kTagGather, std::move(payload), stamp);
    ctx.clock().advance(ctx.net().transfer_overhead());
    return {};
  }

  Array2D<double> global(static_cast<std::size_t>(cfg_.nx),
                         static_cast<std::size_t>(cfg_.ny), 0.0);
  // Own tile.
  for (int i = 0; i < dec_.snx; ++i) {
    for (int j = 0; j < dec_.sny; ++j) {
      global(static_cast<std::size_t>(dec_.i0 + i),
             static_cast<std::size_t>(dec_.j0 + j)) =
          local(static_cast<std::size_t>(i), static_cast<std::size_t>(j));
    }
  }
  for (int gr = 1; gr < comm_.group_size(); ++gr) {
    const cluster::Message m = rel_.recv(root_abs + gr, kTagGather);
    ctx.clock().advance_to(m.stamp_us);
    const Decomp dtheir(cfg_, gr);
    std::size_t n = 0;
    for (int i = 0; i < dtheir.snx; ++i) {
      for (int j = 0; j < dtheir.sny; ++j) {
        global(static_cast<std::size_t>(dtheir.i0 + i),
               static_cast<std::size_t>(dtheir.j0 + j)) = m.data[n++];
      }
    }
  }
  return global;
}

Array2D<double> Model::gather_theta(int k) {
  Array2D<double> local(static_cast<std::size_t>(dec_.snx),
                        static_cast<std::size_t>(dec_.sny), 0.0);
  for (int i = 0; i < dec_.snx; ++i) {
    for (int j = 0; j < dec_.sny; ++j) {
      local(static_cast<std::size_t>(i), static_cast<std::size_t>(j)) =
          state_.theta(static_cast<std::size_t>(i + dec_.halo),
                       static_cast<std::size_t>(j + dec_.halo),
                       static_cast<std::size_t>(k));
    }
  }
  return gather2d(local);
}

Array2D<double> Model::gather_speed(int k) {
  Array2D<double> local(static_cast<std::size_t>(dec_.snx),
                        static_cast<std::size_t>(dec_.sny), 0.0);
  for (int i = 0; i < dec_.snx; ++i) {
    for (int j = 0; j < dec_.sny; ++j) {
      const auto si = static_cast<std::size_t>(i + dec_.halo);
      const auto sj = static_cast<std::size_t>(j + dec_.halo);
      const auto sk = static_cast<std::size_t>(k);
      const double uc = 0.5 * (state_.u(si, sj, sk) + state_.u(si + 1, sj, sk));
      const double vc = 0.5 * (state_.v(si, sj, sk) + state_.v(si, sj + 1, sk));
      local(static_cast<std::size_t>(i), static_cast<std::size_t>(j)) =
          std::sqrt(uc * uc + vc * vc);
    }
  }
  return gather2d(local);
}

// Checkpoint format and file naming live in gcm/tile_ckpt (the single
// owner of the HYADES03 wire format and path composition); the Model
// methods stay as the per-rank facade over it.

void Model::save_checkpoint(const std::string& prefix) const {
  tile_ckpt::save(tile_ckpt::rank_path(prefix, comm_.group_rank()), cfg_,
                  state_);
}

void Model::load_checkpoint(const std::string& prefix) {
  tile_ckpt::load(tile_ckpt::rank_path(prefix, comm_.group_rank()), cfg_,
                  &state_);
}

Array2D<double> Model::gather_ps() {
  Array2D<double> local(static_cast<std::size_t>(dec_.snx),
                        static_cast<std::size_t>(dec_.sny), 0.0);
  for (int i = 0; i < dec_.snx; ++i) {
    for (int j = 0; j < dec_.sny; ++j) {
      local(static_cast<std::size_t>(i), static_cast<std::size_t>(j)) =
          state_.ps(static_cast<std::size_t>(i + dec_.halo),
                    static_cast<std::size_t>(j + dec_.halo));
    }
  }
  return gather2d(local);
}

}  // namespace hyades::gcm
